package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json -selfcheck reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runChild runs one workload in a process of its own (a fresh heap, as the
// driver does) and returns its standard output.
func runChild(cfg config, workload string, seed int64) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-scale", cfg.scale,
		"-tmp", cfg.tmpRoot, "-trace-out", cfg.traceOut)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// runAll is what the command does without -workload: every workload in
// turn, each child's report printed as it arrives. The exit code is the
// worst of the children's.
func runAll(cfg config) int {
	code := 0
	for _, w := range workloads {
		out, err := runChild(cfg, w.name, cfg.seed)
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runSelfcheck is the A/A check the driver also makes: two sets of runs of
// the same code, each run in a child process with its own seed. A metric
// passes when set B's median is not worse than set A's by more than the
// bound and, for every metric but setup_s, each set's quartile distance
// stays within the bound too. The table goes to standard output as
// markdown (SPREAD.md is this output); the return value is the exit code.
func runSelfcheck(cfg config, runs int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck: run from the repository root:", err)
		return 2
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck: BENCHMARK.json:", err)
		return 2
	}
	cfg.seconds, cfg.trace = bj.RunSeconds, false

	// values[workload][set][metric] holds one value per run; "raw." names
	// hold the wall-clock counterparts of the normalised timings.
	values := map[string][2]map[string][]float64{}
	for _, w := range workloads {
		values[w.name] = [2]map[string][]float64{{}, {}}
	}
	for set := 0; set < 2; set++ {
		for i := 0; i < runs; i++ {
			for _, w := range workloads {
				seed := cfg.seed + int64(set*runs+i)
				out, err := runChild(cfg, w.name, seed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: %v\n", w.name, seed, err)
					return 2
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var first struct {
					Raw map[string]float64 `json:"raw"`
				}
				var last resultLine
				if json.Unmarshal(lines[0], &first) != nil || json.Unmarshal(lines[len(lines)-1], &last) != nil || !last.Correct {
					fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: unreadable or incorrect result\n", w.name, seed)
					return 2
				}
				for name, m := range last.Metrics {
					values[w.name][set][name] = append(values[w.name][set][name], m.Value)
				}
				for name, v := range first.Raw {
					values[w.name][set][name] = append(values[w.name][set][name], v)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %c run %d %s done\n", 'A'+set, i+1, w.name)
			}
		}
	}

	fmt.Printf("A/A self-check: 2 sets x %d runs per workload, %d s each, seeds %d..%d, scale %s\n\n",
		runs, bj.RunSeconds, cfg.seed, cfg.seed+int64(2*runs-1), cfg.scale)
	fmt.Println("Spread is the distance between the quartiles as a share of the median; B vs A is how much worse set B's median is.")
	fmt.Println()
	fmt.Println("| workload | metric | median A | median B | B vs A | spread A | spread B | raw spread A | raw spread B | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
	breaches := 0
	for _, w := range workloads {
		for _, m := range bj.EndToEnd {
			a, b := values[w.name][0][m.Name], values[w.name][1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrShare(a), iqrShare(b)
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "BREACH"
				breaches++
			}
			rawA, rawB := "-", "-"
			if r := values[w.name][0]["raw."+m.Name]; len(r) > 0 {
				rawA, rawB = pctStr(iqrShare(r)), pctStr(iqrShare(values[w.name][1]["raw."+m.Name]))
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %s | %s | %s | %s | %s | %s | %s |\n",
				w.name, m.Name, ma, mb, pctStr(worse), pctStr(sa), pctStr(sb), rawA, rawB, pctStr(m.Bound), verdict)
		}
	}
	fmt.Printf("\n%d breaches\n", breaches)
	if breaches > 0 {
		return 1
	}
	return 0
}

func pctStr(share float64) string {
	return strings.TrimSuffix(strconv.FormatFloat(100*share, 'f', 1, 64), ".0") + "%"
}
