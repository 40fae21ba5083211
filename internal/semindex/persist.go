package semindex

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/index"
)

// SaveWithTOC writes the semantic index (a "SEMIDX <level>" header line
// + the inverted index's codec stream) and returns the serialized mapped
// table of contents for the payload (see index.EncodeWithTOC) — what the
// shard envelope stores as its metadata region so a later open can serve
// the file without decoding it. metaFields lists stored-only fields whose
// values the TOC captures for decode-free access (the shard layer's
// identity fields).
func (s *SemanticIndex) SaveWithTOC(w io.Writer, metaFields ...string) ([]byte, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "SEMIDX %s\n", s.Level); err != nil {
		return nil, err
	}
	toc, err := s.Index.EncodeWithTOC(bw, metaFields...)
	if err != nil {
		return nil, err
	}
	return toc, bw.Flush()
}

// OpenMapped serves an index directly from the payload bytes SaveWithTOC
// wrote, using the TOC it returned: the level header is parsed in place
// and the codec stream behind it becomes an index.OpenMapped region — no
// decoding, no copies. The caller owns the byte slices' lifetime
// (typically an mmap) and their integrity (the shard envelope checksums
// both). A payload without a usable TOC fails.
func OpenMapped(payload, toc []byte, analyzer index.Analyzer) (*SemanticIndex, error) {
	level, stream, err := splitHeader(payload)
	if err != nil {
		return nil, err
	}
	ix, err := index.OpenMapped(stream, toc, analyzer)
	if err != nil {
		return nil, err
	}
	return &SemanticIndex{Level: level, Index: ix}, nil
}

// Load decodes the payload bytes SaveWithTOC wrote onto the heap; the
// result does not alias payload. The analyzer must match the one used at
// build time (nil = StandardAnalyzer, the pipeline default).
func Load(payload []byte, analyzer index.Analyzer) (*SemanticIndex, error) {
	level, stream, err := splitHeader(payload)
	if err != nil {
		return nil, err
	}
	ix, err := index.Decode(bytes.NewReader(stream), analyzer)
	if err != nil {
		return nil, err
	}
	return &SemanticIndex{Level: level, Index: ix}, nil
}

// splitHeader parses a payload's "SEMIDX <level>" line, rejecting any
// level not in Levels, and returns the level and the codec stream after it.
func splitHeader(payload []byte) (Level, []byte, error) {
	nl := bytes.IndexByte(payload, '\n')
	if nl < 0 || nl > 64 {
		return "", nil, fmt.Errorf("semindex: bad header in payload")
	}
	parts := strings.Fields(string(payload[:nl]))
	if len(parts) != 2 || parts[0] != "SEMIDX" {
		return "", nil, fmt.Errorf("semindex: bad header %q", payload[:nl])
	}
	level := Level(parts[1])
	if !slices.Contains(Levels, level) {
		return "", nil, fmt.Errorf("semindex: unknown level %q", level)
	}
	return level, payload[nl+1:], nil
}
