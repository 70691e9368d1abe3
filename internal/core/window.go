package core

// outQueue is the sender's record of unacknowledged packets, indexed by
// sequence number. Seqs are assigned in increasing order, so a send
// appends, an ack indexes, and the acknowledged prefix is trimmed: a
// ring of destinations starting at seq base, with acked entries marked
// -1 until the prefix before them is gone.
type outQueue struct {
	base uint64  // seq of the entry at head
	dst  []int32 // ring of destinations; len is a power of two (or 0)
	head int     // ring index of seq base
	n    int     // entries from base, acked ones included
	live int     // entries not yet acknowledged
}

// push records seq (which must be base+n) as in flight toward dst.
func (q *outQueue) push(seq uint64, dst int) {
	if q.n == 0 {
		q.base, q.head = seq, 0
	}
	if q.n == len(q.dst) {
		q.grow()
	}
	q.dst[(q.head+q.n)&(len(q.dst)-1)] = int32(dst)
	q.n++
	q.live++
}

// grow doubles the ring, unrolling it so head restarts at index 0.
func (q *outQueue) grow() {
	size := 2 * len(q.dst)
	if size == 0 {
		size = 16
	}
	next := make([]int32, size)
	for i := 0; i < q.n; i++ {
		next[i] = q.dst[(q.head+i)&(len(q.dst)-1)]
	}
	q.dst, q.head = next, 0
}

// ack marks seq acknowledged and returns its destination; ok is false
// for a seq that is not in flight (already acked or never sent), which
// makes repeated acknowledgements harmless.
func (q *outQueue) ack(seq uint64) (dst int, ok bool) {
	if seq < q.base || seq-q.base >= uint64(q.n) {
		return 0, false
	}
	i := (q.head + int(seq-q.base)) & (len(q.dst) - 1)
	if q.dst[i] < 0 {
		return 0, false
	}
	dst = int(q.dst[i])
	q.dst[i] = -1
	q.live--
	for q.n > 0 && q.dst[q.head] < 0 {
		q.head = (q.head + 1) & (len(q.dst) - 1)
		q.base++
		q.n--
	}
	return dst, true
}

// low returns the lowest unacknowledged seq, or next (the seq the
// following send will take) when nothing is in flight.
func (q *outQueue) low(next uint64) uint64 {
	if q.n == 0 {
		return next
	}
	return q.base
}

// dupWindow is a receiver's exactly-once screen for one source. Every
// frame carries its sender's lowest unacknowledged seq (Packet.LowSeq);
// the highest such stamp is a low-water mark below which every seq was
// already accepted here, so only seqs at or above it need a bit. The
// bitmap therefore spans at most the sender's in-flight seq range, not
// the run's history.
type dupWindow struct {
	mark uint64   // seqs below mark are duplicates
	base uint64   // seq of bit 0 of bits[0]; a multiple of 64, ≤ mark
	bits []uint64 // accepted seqs at or above base

	// spare backs bits while the window spans at most 256 seqs, so a
	// typical window costs one allocation.
	spare [4]uint64
}

// newDupWindow returns an empty window whose bitmap starts in spare.
func newDupWindow() *dupWindow {
	w := new(dupWindow)
	w.bits = w.spare[:0]
	return w
}

// admit records (lowSeq, seq) from one frame and reports whether seq is
// new; false means the frame is a duplicate.
func (w *dupWindow) admit(lowSeq, seq uint64) bool {
	if lowSeq > w.mark {
		w.mark = lowSeq
		drop := (lowSeq&^63 - w.base) / 64
		if drop >= uint64(len(w.bits)) {
			w.bits = w.bits[:0]
		} else {
			w.bits = w.bits[:copy(w.bits, w.bits[drop:])]
		}
		w.base = lowSeq &^ 63
	}
	if seq < w.mark {
		return false
	}
	word, bit := (seq-w.base)/64, uint64(1)<<((seq-w.base)%64)
	if grow := int(word) + 1 - len(w.bits); grow > 0 {
		w.bits = append(w.bits, make([]uint64, grow)...)
	}
	if w.bits[word]&bit != 0 {
		return false
	}
	w.bits[word] |= bit
	return true
}
