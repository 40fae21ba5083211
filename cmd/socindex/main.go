// Command socindex builds the semantic indices of Section 3.6 over a
// corpus, each as a shard.Engine, and reports their shape.
//
//	socindex                                 build all five levels, print stats
//	socindex -level FULL_INF                 build one level
//	socindex -level FULL_INF -save idx.bin   persist it as a manifest-anchored
//	                                         snapshot at base idx.bin
//	socindex -level FULL_INF -shards 4       parallel 4-way sharded build
//	socindex -verify idx.bin                 fsck a saved snapshot: manifest,
//	                                         per-shard checksums, WAL tail;
//	                                         then open it memory-mapped and
//	                                         report the O(manifest) open time
//
// -verify exits 0 only when recovery from the snapshot would be
// complete and loss-free; anything else exits 1 with a per-file report.
// The fsck streams checksums — files are audited without loading them.
// Only a snapshot that passes is then opened memory-mapped, which adds
// the mapped open's structural checks of every shard file. That open
// replays the WAL as a restart would, and a restart truncates a torn
// tail, so verify a base no running process appends to.
// The report tells damage apart from version skew: a shard file whose
// envelope or index codec is not the one version this build reads —
// older or newer — is UNVERIFIABLE, intact as far as this binary can
// tell and readable by the build that wrote it, while a failed size or
// checksum check is DAMAGED.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/semindex"
	"repro/internal/shard"
)

func main() {
	fs := flag.NewFlagSet("socindex", flag.ExitOnError)
	var cf cli.CorpusFlags
	cf.Register(fs)
	level := fs.String("level", "", "build only this level (TRAD, BASIC_EXT, FULL_EXT, FULL_INF, PHR_EXP)")
	save := fs.String("save", "", "save the (single) built index as a snapshot at this base")
	shards := fs.Int("shards", 1, "partition each index N ways")
	verify := fs.String("verify", "", "verify a saved snapshot at this base (fsck, then a mapped open) and exit")
	fs.Parse(os.Args[1:])

	if *verify != "" {
		rep := shard.Fsck(*verify)
		fmt.Print(rep.String())
		if !rep.OK() {
			os.Exit(1)
		}
		start := time.Now()
		eng, err := shard.LoadWith(*verify, nil, shard.LoadOptions{Mapped: true})
		if err != nil {
			cli.Fatal(fmt.Errorf("mapped open: %w", err))
		}
		fmt.Printf("mapped open: %d docs across %d shard(s) in %v\n",
			eng.NumDocs(), eng.NumShards(), time.Since(start).Round(time.Microsecond))
		if err := eng.Close(); err != nil {
			cli.Fatal(err)
		}
		return
	}

	pages, _, err := cf.LoadPages()
	if err != nil {
		cli.Fatal(err)
	}
	levels := semindex.Levels
	if *level != "" {
		levels = []semindex.Level{semindex.Level(*level)}
	}
	b := semindex.NewBuilder()
	for _, l := range levels {
		start := time.Now()
		eng := shard.Build(b, l, pages, shard.Options{Shards: *shards})
		fmt.Printf("%-10s %s, built in %v\n", l, eng.Stats(), time.Since(start).Round(time.Millisecond))
		if *save != "" && len(levels) == 1 {
			if err := eng.Save(*save); err != nil {
				cli.Fatal(err)
			}
			rep := shard.Fsck(*save)
			if !rep.OK() {
				cli.Fatal(fmt.Errorf("snapshot failed verification after save:\n%s", rep))
			}
			var total int64
			for _, f := range rep.Files {
				total += f.Size
			}
			fmt.Printf("saved %d shard file(s) + manifest to %s.* (%d payload bytes, generation %d)\n",
				len(rep.Files), *save, total, rep.Generation)
		}
	}
}
