package index

import "testing"

// zeroBoostIndex holds one document matching "shadow" only through the
// body field, and one matching through the title field — the minimal
// corpus on which zero-weighting a field is observable.
func zeroBoostIndex() *Index {
	ix := New(nil)
	ix.Add((&Document{}).Add("title", "alpha report").Add("body", "the shadow archive"))
	ix.Add((&Document{}).Add("title", "shadow ledger").Add("body", "quarterly numbers"))
	return ix
}

// TestMultiFieldQueryZeroBoostDropsField is the boost-ablation regression
// test: a field listed with Boost 0 must contribute no score at all. On
// the seed code the zero boost was silently promoted to 1.0 by the
// TermQuery sentinel, so doc 0 (matching only via body) still surfaced at
// full weight.
func TestMultiFieldQueryZeroBoostDropsField(t *testing.T) {
	ix := zeroBoostIndex()

	both := ix.Search(MultiFieldQuery("shadow", []FieldBoost{
		{Field: "title", Boost: 1},
		{Field: "body", Boost: 1},
	}), 0)
	if len(both) != 2 {
		t.Fatalf("sanity: both fields searched gave %d hits, want 2", len(both))
	}

	titleOnly := ix.Search(MultiFieldQuery("shadow", []FieldBoost{
		{Field: "title", Boost: 1},
		{Field: "body", Boost: 0},
	}), 0)
	if len(titleOnly) != 1 || titleOnly[0].DocID != 1 {
		t.Fatalf("zero-boosted body still scored: hits = %+v, want only doc 1", titleOnly)
	}

	// Zero-boosting must rank identically to omitting the field outright.
	omitted := ix.Search(MultiFieldQuery("shadow", []FieldBoost{
		{Field: "title", Boost: 1},
	}), 0)
	if err := sameHits(titleOnly, omitted); err != nil {
		t.Errorf("zero boost ranks unlike omission: %v", err)
	}

	// All fields zero-boosted means nothing is searched, not everything.
	if none := ix.Search(MultiFieldQuery("shadow", []FieldBoost{
		{Field: "title", Boost: 0},
		{Field: "body", Boost: 0},
	}), 0); len(none) != 0 {
		t.Errorf("all-zero boosts returned %d hits, want 0", len(none))
	}
}
