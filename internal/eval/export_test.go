package eval

import "repro/internal/semindex"

// MAP returns the mean AP over the table's rows for a level.
func (t Table) MAP(level semindex.Level) float64 {
	sum := 0.0
	for _, r := range t.Rows {
		sum += r.Cells[level].AP
	}
	if len(t.Rows) == 0 {
		return 0
	}
	return sum / float64(len(t.Rows))
}
