package qcache

// Bytes returns the resident byte estimate.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for _, s := range c.segs {
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}
