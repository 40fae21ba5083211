package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/semindex"
	"repro/internal/shard"
	"repro/internal/soccer"
	"repro/internal/wal"
)

// recoveryPages is a small crawled corpus for the persistence-facing
// handler tests.
func recoveryPages(t *testing.T) []*crawler.MatchPage {
	t.Helper()
	c := soccer.Generate(soccer.Config{Matches: 3, Seed: 42, NarrationsPerMatch: 20, PaperCoverage: true})
	return crawler.PagesFromCorpus(c)
}

// TestReadyzDegraded corrupts one shard file of a saved snapshot and
// asserts the handler's readiness endpoint names the quarantined shard:
// still 200 — the engine serves — but visibly degraded.
func TestReadyzDegraded(t *testing.T) {
	pages := recoveryPages(t)
	base := filepath.Join(t.TempDir(), "idx.bin")
	eng := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: 2})
	if err := eng.Save(base); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(base + ".g*.shard*")
	if err != nil || len(names) == 0 {
		t.Fatalf("no shard files saved: %v", err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	degraded, err := shard.Load(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(degraded))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("degraded readyz status %d, want 200 (the engine still serves)", resp.StatusCode)
	}
	if !strings.Contains(string(body), "degraded") || !strings.Contains(string(body), "quarantined") {
		t.Errorf("degraded readyz body %q does not name the loss", body)
	}
	if resp.Header.Get("X-Search-Degraded") != "true" {
		t.Error("degraded readyz missing X-Search-Degraded header")
	}

	// A search against the degraded engine carries the same surface.
	sresp, err := srv.Client().Get(srv.URL + "/v1/search?q=goal")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.Header.Get("X-Search-Degraded") != "true" {
		t.Error("degraded search answer missing X-Search-Degraded header")
	}
}

// TestReadyzHealthyEngine guards the inverse: a cleanly loaded engine
// reports plain readiness.
func TestReadyzHealthyEngine(t *testing.T) {
	pages := recoveryPages(t)
	eng := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: 2})
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("ready (%d docs)", eng.NumDocs())
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != want {
		t.Errorf("healthy readyz: status %d body %q, want %q", resp.StatusCode, body, want)
	}
}

// TestV1IngestDurableAcrossRestart drives the WAL path end to end over
// HTTP: snapshot two pages, ingest the third through POST /v1/ingest
// with a WAL attached, kill the handle without any checkpoint, and
// require a reload to recover the ingested page from the log alone.
func TestV1IngestDurableAcrossRestart(t *testing.T) {
	pages := recoveryPages(t)
	base := filepath.Join(t.TempDir(), "idx.bin")
	eng := shard.Build(nil, semindex.FullInf, pages[:2], shard.Options{Shards: 2})
	if err := eng.Save(base); err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachWAL(base, wal.Options{Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()

	before := eng.NumDocs()
	body, err := json.Marshal(v1IngestBatchRequest{Pages: pages[2:3]})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack v1IngestBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || ack.Pages != 1 || ack.Durability != "logged" {
		t.Fatalf("ingest ack: status %d, %+v", resp.StatusCode, ack)
	}
	if ack.TotalDocs != before+ack.Docs || ack.Docs == 0 {
		t.Fatalf("ingest did not grow the index: %d docs before, ack %+v", before, ack)
	}

	// Crash: no Save, no CloseWAL sync beyond the per-append fsync.
	back, err := shard.Load(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := back.LoadReport()
	if rep.WALReplayed != 1 {
		t.Fatalf("recovery replayed %d records, want the 1 acknowledged ingest", rep.WALReplayed)
	}
	want := shard.Build(nil, semindex.FullInf, pages[:3], shard.Options{Shards: 2})
	if back.NumDocs() != want.NumDocs() {
		t.Fatalf("recovered %d docs, want %d", back.NumDocs(), want.NumDocs())
	}
}

// TestV1IngestPerPage posts an `atomic:false` batch of three pages, one
// of them twice: it commits page by page, so the answer is a 200 whose
// counts are those of the three pages ingested as one-page batches.
func TestV1IngestPerPage(t *testing.T) {
	pages := recoveryPages(t)
	batch := []*crawler.MatchPage{pages[0], pages[2], pages[0]}
	eng := shard.Build(nil, semindex.FullInf, pages[:2], shard.Options{Shards: 2})
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()

	body, err := json.Marshal(map[string]any{"pages": batch, "atomic": false})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack v1IngestBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ref := shard.Build(nil, semindex.FullInf, pages[:2], shard.Options{Shards: 2})
	var docs, tombstones int
	for _, p := range batch {
		res, err := ref.Ingest(context.Background(), []*crawler.MatchPage{p}, shard.IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		docs, tombstones = docs+res.Docs, tombstones+res.Tombstones
	}
	if resp.StatusCode != http.StatusOK || ack.Pages != 3 || ack.Docs != docs || ack.Tombstones != tombstones || ack.TotalDocs != ref.NumDocs() {
		t.Fatalf("per-page ingest: status %d, %+v; three one-page batches: %d docs, %d tombstones, %d live",
			resp.StatusCode, ack, docs, tombstones, ref.NumDocs())
	}
}

// TestV1IngestValidation covers the endpoint's rejection surface.
func TestV1IngestValidation(t *testing.T) {
	pages := recoveryPages(t)
	eng := shard.Build(nil, semindex.FullInf, pages, shard.Options{Shards: 2})
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()

	post := func(body string) (int, string) {
		resp, err := srv.Client().Post(srv.URL+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(msg)
	}
	for name, body := range map[string]string{
		"malformed body": `{not json`,
		"empty batch":    `{"pages":[]}`,
		"missing id":     `{"pages":[{"Home":"A"}]}`,
		"unknown field":  `{"pages":[{"ID":"x","Bogus":1}]}`,
		"bad durability": `{"pages":[{"ID":"x"}],"durability":"later"}`,
	} {
		if code, _ := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d", name, code)
		}
	}
	// A bare crawler.MatchPage is not a batch: it is refused, and the
	// error names the one body shape the endpoint takes.
	code, msg := post(`{"ID":"x"}`)
	if code != http.StatusBadRequest || !strings.Contains(msg, `{"pages":[`) {
		t.Errorf("bare page: status %d, message %q", code, msg)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest: status %d", resp.StatusCode)
	}
}
