package semindex

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// parseHeader reads the level out of a "SEMIDX <level>" header line
// (trailing newline optional) and rejects any level not in Levels.
func parseHeader(header string) (Level, error) {
	parts := strings.Fields(header)
	if len(parts) != 2 || parts[0] != "SEMIDX" {
		return "", fmt.Errorf("semindex: bad header %q", header)
	}
	level := Level(parts[1])
	for _, l := range Levels {
		if l == level {
			return level, nil
		}
	}
	return "", fmt.Errorf("semindex: unknown level %q", level)
}

// OpenMapped serves an index directly from the payload bytes SaveWithTOC
// wrote, using the TOC it returned: the level header is parsed in place
// and the codec stream behind it becomes an index.OpenMapped region — no
// decoding, no copies. The caller owns the byte slices' lifetime
// (typically an mmap) and their integrity (the shard envelope checksums
// both). A payload without a usable TOC fails.
func OpenMapped(payload, toc []byte, analyzer index.Analyzer) (*SemanticIndex, error) {
	nl := bytes.IndexByte(payload, '\n')
	if nl < 0 || nl > 64 {
		return nil, fmt.Errorf("semindex: bad header in mapped payload")
	}
	level, err := parseHeader(string(payload[:nl]))
	if err != nil {
		return nil, err
	}
	ix, err := index.OpenMapped(payload[nl+1:], toc, analyzer)
	if err != nil {
		return nil, err
	}
	return &SemanticIndex{Level: level, Index: ix}, nil
}

// Load decodes a payload SaveWithTOC wrote onto the heap. The analyzer
// must match the one used at build time (nil = StandardAnalyzer, the
// pipeline default).
func Load(r io.Reader, analyzer index.Analyzer) (*SemanticIndex, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("semindex: reading header: %w", err)
	}
	level, err := parseHeader(header)
	if err != nil {
		return nil, err
	}
	ix, err := index.Decode(br, analyzer)
	if err != nil {
		return nil, err
	}
	return &SemanticIndex{Level: level, Index: ix}, nil
}
