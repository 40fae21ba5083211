package eval

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/semindex"
)

// WriteTrecRun exports ranked results in the standard TREC run format
// ("qid Q0 docno rank score runid"), so the reproduced system's output can
// be scored by trec_eval or compared against other systems with standard
// tooling. Document numbers are matchID#docID, stable across runs of the
// same corpus.
func WriteTrecRun(w io.Writer, runID string, queries []Query, si *semindex.SemanticIndex, depth int) error {
	if depth <= 0 {
		depth = 100
	}
	bw := bufio.NewWriter(w)
	for _, q := range queries {
		hits := si.Search(q.Keywords, depth)
		for rank, h := range hits {
			docno := fmt.Sprintf("%s#%d", h.Meta(semindex.MetaMatchID), h.DocID)
			if _, err := fmt.Fprintf(bw, "%s Q0 %s %d %.6f %s\n",
				q.ID, docno, rank+1, h.Score, runID); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
