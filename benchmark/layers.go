package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/crawler"
	"repro/internal/index"
	"repro/internal/loadgen"
	"repro/internal/qcache"
	"repro/internal/semindex"
	"repro/internal/shard"
	"repro/internal/wal"
)

// The probes in this file run on traced passes only. Each times one
// exported call into a layer from outside, on the state the workload built,
// so a per-layer number names the call it measures.

func timeMs(fn func()) float64 {
	start := time.Now()
	fn()
	return ms(time.Since(start))
}

// codecLayers times the persistence calls under mapped_serve's set-up and
// open: the index codec per shard, and the shard envelope's two load paths.
func (h *harness) codecLayers(eng *shard.Engine, base string) error {
	var encMs, decMs, openMs float64
	var encBytes int
	for s := 0; s < eng.NumShards(); s++ {
		ix := eng.Shard(s).Index
		var buf bytes.Buffer
		var toc []byte
		var err error
		encMs += timeMs(func() { toc, err = ix.EncodeWithTOC(&buf, shard.MetaGID, semindex.MetaMatchID) })
		if err != nil {
			return fmt.Errorf("index encode: %w", err)
		}
		encBytes += buf.Len()
		decMs += timeMs(func() { _, err = index.Decode(bytes.NewReader(buf.Bytes()), nil) })
		if err != nil {
			return fmt.Errorf("index decode: %w", err)
		}
		openMs += timeMs(func() { _, err = index.OpenMapped(buf.Bytes(), toc, nil) })
		if err != nil {
			return fmt.Errorf("index open mapped: %w", err)
		}
	}
	h.layer["index.encode_ms"] = encMs
	h.layer["index.encode_bytes"] = float64(encBytes)
	h.layer["index.decode_ms"] = decMs
	h.layer["index.open_mapped_ms"] = openMs

	var loaded *shard.Engine
	var err error
	h.layer["shard.load_heap_ms"] = timeMs(func() { loaded, err = shard.Load(base, nil) })
	if err != nil {
		return fmt.Errorf("heap load: %w", err)
	}
	return loaded.Close()
}

// mergeLayer times index.MergeIndexes over shard 0's base and a one-page
// segment built beside it: the call ForceMerge makes per shard.
func (h *harness) mergeLayer(eng *shard.Engine, b *semindex.Builder, page *crawler.MatchPage) error {
	seg := index.New(b.Analyzer)
	for _, d := range b.PageDocuments(semindex.FullInf, page) {
		seg.Add(d)
	}
	var merged *index.Index
	h.layer["index.merge_ms"] = timeMs(func() {
		merged, _ = index.MergeIndexes([]*index.Index{eng.Shard(0).Index, seg}, nil)
	})
	if merged == nil {
		return errors.New("index merge returned nothing")
	}
	h.layer["index.merge_docs"] = float64(merged.NumDocs())
	return nil
}

// cacheAndWALLayers times qcache and wal directly, on instances of their
// own, with entries and records shaped like the engine's.
func (h *harness) cacheAndWALLayers(page *crawler.MatchPage) error {
	const n = 2000
	c := qcache.New(cacheBytes, 0, nil)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "v1|10|query number " + strconv.Itoa(i)
	}
	val := make([]semindex.Hit, searchLimit)
	h.layer["qcache.put_ns"] = 1e6 * timeMs(func() {
		for _, k := range keys {
			c.Put(k, val, 1024, 1)
		}
	}) / n
	found := 0
	h.layer["qcache.get_ns"] = 1e6 * timeMs(func() {
		for _, k := range keys {
			if _, ok := c.Get(k, 1); ok {
				found++
			}
		}
	}) / n
	if found != n {
		return fmt.Errorf("qcache probe: %d of %d keys found", found, n)
	}

	rec, err := json.Marshal([]*crawler.MatchPage{page})
	if err != nil {
		return err
	}
	l, err := wal.Open(filepath.Join(h.tmp, "probe.wal"), 0, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return fmt.Errorf("wal open: %w", err)
	}
	const appends = 50
	total := timeMs(func() {
		for i := 0; i < appends && err == nil; i++ {
			err = l.AppendAsync(rec)
		}
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	h.layer["wal.append_us"] = 1e3 * total / appends
	return nil
}

// buildLayers replays, between two chunk commits, the two calls a commit
// is made of on one page of the chunk just committed.
func (h *harness) buildLayers(b *semindex.Builder, probe *index.Index, page *crawler.MatchPage) {
	id := h.tr.begin("semindex.Builder.PageDocuments", 0, 0)
	start := time.Now()
	docs := b.PageDocuments(semindex.FullInf, page)
	h.rec.observe("pagedocs", time.Since(start))
	h.tr.end(id)
	h.layerAdd("semindex.docs_per_page", float64(len(docs)))
	id = h.tr.begin("index.Index.Add", 0, 0)
	start = time.Now()
	for _, d := range docs {
		probe.Add(d)
	}
	h.rec.observe("add_per_doc", time.Since(start)/time.Duration(len(docs)))
	h.tr.end(id)
}

// socserveEnvelope measures what a /v1/search client pays on top of the
// in-process search: a socserve child serves the saved engine with its
// cache off, one keep-alive connection sends the whole pool, and the
// result is HTTP p50 minus in-process p50 over the same queries. The child
// is looked up beside this binary, where run.sh builds it.
func (h *harness) socserveEnvelope(eng *shard.Engine, pool []loadgen.Query) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bin := filepath.Join(filepath.Dir(self), "socserve")
	if _, err := os.Stat(bin); err != nil {
		fmt.Fprintln(os.Stderr, "socserve binary not found beside the benchmark; socserve.envelope_p50_ms left at 0")
		return nil
	}
	base := filepath.Join(h.tmp, "serve.bin")
	if err := eng.Save(base); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "-addr", addr, "-index", base, "-shards", strconv.Itoa(shards), "-cache-off")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	get := func(path string) error {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", path, resp.Status)
		}
		return nil
	}
	ready := false
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if get("/readyz") == nil {
			ready = true
			break
		}
	}
	if !ready {
		return errors.New("socserve did not become ready")
	}

	var viaHTTP, inProc []float64
	for _, q := range pool {
		path := "/v1/search?n=" + strconv.Itoa(searchLimit) + "&q=" + url.QueryEscape(q.Text)
		var err error
		viaHTTP = append(viaHTTP, timeMs(func() { err = get(path) }))
		h.attempted++
		if err != nil {
			h.failed++
			fmt.Fprintln(os.Stderr, "socserve:", err)
		}
		inProc = append(inProc, timeMs(func() { eng.Search(h.ctx, q.Text, coldOpts) }))
	}
	h.layer["socserve.envelope_p50_ms"] = percentile(viaHTTP, 50) - percentile(inProc, 50)
	return nil
}
