package core

// ScreenOf returns the duplicate screen's low-water mark for src and
// the number of bitmap words it holds.
func ScreenOf(ep *Endpoint, src int) (mark uint64, words int) {
	w := ep.seen[src]
	if w == nil {
		return 0, 0
	}
	return w.mark, len(w.bits)
}
