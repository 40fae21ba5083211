package wal

// Generation returns the snapshot generation this log extends.
func (l *Log) Generation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}
