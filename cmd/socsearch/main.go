// Command socsearch is the keyword query interface of Section 3.6: it
// builds the semantic index over a corpus as a one-shard shard.Engine (or
// loads a saved snapshot) and answers keyword queries, either from the
// command line or interactively from stdin.
//
//	socsearch "messi barcelona goal"
//	socsearch -level TRAD "goal"
//	socsearch -load idx.bin "goal"  search the snapshot socindex -save wrote at base idx.bin
//	socsearch -i                    interactive prompt
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/index"
	"repro/internal/semindex"
	"repro/internal/shard"
)

func main() {
	fs := flag.NewFlagSet("socsearch", flag.ExitOnError)
	var cf cli.CorpusFlags
	cf.Register(fs)
	level := fs.String("level", string(semindex.FullInf), "index level to search")
	limit := fs.Int("n", 10, "number of results")
	interactive := fs.Bool("i", false, "interactive mode")
	load := fs.String("load", "", "load the snapshot saved at this base instead of building")
	fs.Parse(os.Args[1:])

	var eng *shard.Engine
	if *load != "" {
		var err error
		eng, err = shard.Load(*load, nil)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("loaded %s index (%d docs) from %s\n", eng.Level(), eng.NumDocs(), *load)
	} else {
		pages, _, err := cf.LoadPages()
		if err != nil {
			cli.Fatal(err)
		}
		start := time.Now()
		eng = shard.Build(nil, semindex.Level(*level), pages, shard.Options{Shards: 1})
		fmt.Printf("built %s over %d matches (%d docs) in %v\n",
			eng.Level(), len(pages), eng.NumDocs(), time.Since(start).Round(time.Millisecond))
	}
	hl := index.Highlighter{Pre: "[", Post: "]"}

	run := func(q string) {
		t0 := time.Now()
		res, err := eng.Search(context.Background(), q, shard.SearchOptions{Limit: *limit})
		if err != nil {
			cli.Fatal(err)
		}
		hits := res.Hits
		fmt.Printf("%d results in %v for %q\n", len(hits), time.Since(t0).Round(time.Microsecond), q)
		for i, h := range hits {
			kind := h.Meta(semindex.MetaKind)
			narr := h.Doc().Get(semindex.FieldNarration)
			if narr == "" {
				narr = "(no narration: " + h.Meta(semindex.MetaSubject) + ")"
			} else {
				narr = hl.Snippet(narr, q)
			}
			fmt.Printf("%2d. [%5.2f] %-16s %s' %s\n", i+1, h.Score, kind, h.Meta(semindex.MetaMinute), narr)
		}
	}

	if *interactive {
		sc := bufio.NewScanner(os.Stdin)
		fmt.Print("query> ")
		for sc.Scan() {
			q := sc.Text()
			if q == "" || q == "quit" || q == "exit" {
				return
			}
			run(q)
			fmt.Print("query> ")
		}
		return
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: socsearch [flags] <keyword query>")
		os.Exit(2)
	}
	run(fs.Arg(0))
}
