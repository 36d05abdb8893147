package engine

// CachedUnder reports whether e's memo holds point p of fingerprint fp
// under key: the probe the cluster ring's placement check needs.
func CachedUnder(e *Engine, key uint64, fp string, p []float64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.fps[fp]
	if !ok || e.cache == nil {
		return false
	}
	_, hit := e.cache.get(key, id, p)
	return hit
}
