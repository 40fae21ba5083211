package semindex

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/index"
)

// Save writes the semantic index (level header + inverted index) so the
// offline pipeline can build once and serve from a file — the deployment
// shape the paper's scalability argument implies.
func (s *SemanticIndex) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "SEMIDX %s\n", s.Level); err != nil {
		return err
	}
	if err := s.Index.Encode(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveWithTOC writes exactly the bytes Save writes while additionally
// returning the serialized mapped table of contents for the payload (see
// index.EncodeWithTOC) — what the shard envelope stores as its metadata
// region so a later open can serve the file without decoding it.
// metaFields lists stored-only fields whose values the TOC captures for
// decode-free access (the shard layer's identity fields).
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

// OpenMapped serves an index directly from the payload bytes Save (or
// SaveWithTOC) wrote, using the TOC recorded alongside: the level header
// is parsed in place and the codec stream behind it becomes an
// index.OpenMapped region — no decoding, no copies. The caller owns the
// byte slices' lifetime (typically an mmap) and their integrity (the
// shard envelope checksums both). A payload without a usable TOC fails.
func OpenMapped(payload, toc []byte, analyzer index.Analyzer) (*SemanticIndex, error) {
	nl := bytes.IndexByte(payload, '\n')
	if nl < 0 || nl > 64 {
		return nil, fmt.Errorf("semindex: bad header in mapped payload")
	}
	parts := strings.Fields(string(payload[:nl]))
	if len(parts) != 2 || parts[0] != "SEMIDX" {
		return nil, fmt.Errorf("semindex: bad header %q", payload[:nl])
	}
	level := Level(parts[1])
	valid := false
	for _, l := range Levels {
		if l == level {
			valid = true
		}
	}
	if !valid {
		return nil, fmt.Errorf("semindex: unknown level %q", level)
	}
	ix, err := index.OpenMapped(payload[nl+1:], toc, analyzer)
	if err != nil {
		return nil, err
	}
	return &SemanticIndex{Level: level, Index: ix}, nil
}

// Load reads an index written by Save. The analyzer must match the one
// used at build time (nil = StandardAnalyzer, the pipeline default).
func Load(r io.Reader, analyzer index.Analyzer) (*SemanticIndex, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("semindex: reading header: %w", err)
	}
	parts := strings.Fields(strings.TrimSpace(header))
	if len(parts) != 2 || parts[0] != "SEMIDX" {
		return nil, fmt.Errorf("semindex: bad header %q", header)
	}
	level := Level(parts[1])
	valid := false
	for _, l := range Levels {
		if l == level {
			valid = true
		}
	}
	if !valid {
		return nil, fmt.Errorf("semindex: unknown level %q", level)
	}
	ix, err := index.Decode(br, analyzer)
	if err != nil {
		return nil, err
	}
	return &SemanticIndex{Level: level, Index: ix}, nil
}
