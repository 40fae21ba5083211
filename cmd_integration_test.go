package repro

// Integration test for the command-line tools: build every binary once and
// drive the full disk-based pipeline the way a user would —
// generate pages -> extract models -> infer -> build+save index -> search.
// Skipped under -short (it shells out to the Go toolchain).

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T, binDir, name string) string {
	t.Helper()
	bin := filepath.Join(binDir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	binDir := t.TempDir()
	work := t.TempDir()

	socgen := buildTool(t, binDir, "socgen")
	socextract := buildTool(t, binDir, "socextract")
	socinfer := buildTool(t, binDir, "socinfer")
	socindex := buildTool(t, binDir, "socindex")
	socsearch := buildTool(t, binDir, "socsearch")
	socontology := buildTool(t, binDir, "socontology")

	pages := filepath.Join(work, "pages")
	models := filepath.Join(work, "models")
	inferred := filepath.Join(work, "inferred")
	idx := filepath.Join(work, "idx.bin")

	// 1. Generate the corpus to disk.
	out := run(t, socgen, "-matches", "3", "-out", pages)
	if !strings.Contains(out, "3 matches") {
		t.Errorf("socgen output: %s", out)
	}
	entries, err := os.ReadDir(pages)
	if err != nil || len(entries) != 3 {
		t.Fatalf("pages dir: %v, %d entries", err, len(entries))
	}

	// 2. Extract and populate from the saved pages.
	out = run(t, socextract, "-pages", pages, "-out", models)
	if !strings.Contains(out, "extracted") {
		t.Errorf("socextract output: %s", out)
	}
	if files, _ := os.ReadDir(models); len(files) != 3 {
		t.Errorf("models dir has %d files", len(files))
	}

	// 3. Inference with consistency check; write inferred models.
	out = run(t, socinfer, "-pages", pages, "-check", "-out", inferred)
	if !strings.Contains(out, "consistent") {
		t.Errorf("socinfer output: %s", out)
	}

	// 4. Build and save the index from the same pages as a snapshot.
	out = run(t, socindex, "-pages", pages, "-level", "FULL_INF", "-save", idx)
	if !strings.Contains(out, "+ manifest to") {
		t.Errorf("socindex output: %s", out)
	}

	// 5. Search the saved index.
	out = run(t, socsearch, "-load", idx, "-n", "3", "foul")
	if !strings.Contains(out, "results in") || !strings.Contains(out, "Foul") {
		t.Errorf("socsearch output: %s", out)
	}

	// 6. Ontology dump sanity.
	out = run(t, socontology)
	if !strings.Contains(out, "79 concepts, 95 properties") {
		t.Errorf("socontology output: %s", out)
	}
}

func TestCLIEvalTables(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	binDir := t.TempDir()
	soceval := buildTool(t, binDir, "soceval")
	out := run(t, soceval, "-matches", "4", "-table", "6")
	if !strings.Contains(out, "Table 6") || !strings.Contains(out, "PHR_EXP") {
		t.Errorf("soceval output: %s", out)
	}
}
