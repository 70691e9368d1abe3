package core

import (
	"math/rand/v2"
	"testing"
)

// TestOutQueueMatchesMap drives the seq-indexed send record through
// random sends and out-of-order, repeated acknowledgements and checks
// it against a plain seq -> destination map after every step: live
// count, lowest unacknowledged seq, and the destination each ack
// returns. The queue wraps and grows many times over the run, and its
// ring stays within twice the widest in-flight seq range.
func TestOutQueueMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var q outQueue
	ref := map[uint64]int{}
	next := uint64(0)
	maxSpan := 0 // widest seq range from the oldest unacked to the newest
	for step := 0; step < 50000; step++ {
		if rng.IntN(2) == 0 && len(ref) < 200 {
			next++
			dst := rng.IntN(8)
			q.push(next, dst)
			ref[next] = dst
		} else if next > 0 {
			// Ack a seq near the front, sometimes one already acked.
			lo := q.low(next + 1)
			s := lo + rng.Uint64N(next-lo+2)
			if rng.IntN(8) == 0 && lo > 1 {
				s = lo - 1
			}
			dst, ok := q.ack(s)
			want, inFlight := ref[s]
			if ok != inFlight || (ok && dst != want) {
				t.Fatalf("step %d: ack(%d) = (%d, %v), want (%d, %v)", step, s, dst, ok, want, inFlight)
			}
			delete(ref, s)
		}
		if q.live != len(ref) {
			t.Fatalf("step %d: live = %d, want %d", step, q.live, len(ref))
		}
		low := next + 1
		for s := range ref {
			low = min(low, s)
		}
		if got := q.low(next + 1); got != low {
			t.Fatalf("step %d: low = %d, want %d", step, got, low)
		}
		maxSpan = max(maxSpan, int(next+1-low))
	}
	if len(q.dst) > 2*maxSpan {
		t.Errorf("ring grew to %d slots for at most %d seqs from the oldest in flight", len(q.dst), maxSpan)
	}
}

// TestDupWindowMatchesSet plays one sender and one receiver: frames are
// stamped with the sender's lowest unacknowledged seq, delivered out of
// order, acknowledged only once accepted, and already-delivered seqs
// are forged again with stale and current stamps. admit must agree with
// a set of every seq ever delivered, its mark must be the highest stamp
// delivered, and its bitmap must span only the seqs above that mark.
func TestDupWindowMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	type frame struct{ seq, low uint64 }
	var (
		w        = newDupWindow()
		q        outQueue
		delivery = map[uint64]bool{}
		inflight []frame
		accepted []uint64 // accepted here, not yet acknowledged at the sender
		next     uint64
		maxStamp uint64 // highest stamp delivered so far
		dups     int
	)
	for step := 0; step < 50000; step++ {
		switch r := rng.IntN(10); {
		case r < 4 && q.live < 150:
			next++
			q.push(next, 1)
			inflight = append(inflight, frame{next, q.low(next + 1)})
		case r < 7 && len(inflight) > 0:
			i := rng.IntN(len(inflight))
			f := inflight[i]
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			fresh := w.admit(f.low, f.seq)
			maxStamp = max(maxStamp, f.low)
			if fresh == delivery[f.seq] {
				t.Fatalf("step %d: admit(low %d, seq %d) = %v, delivered before: %v",
					step, f.low, f.seq, fresh, delivery[f.seq])
			}
			if fresh {
				delivery[f.seq] = true
				accepted = append(accepted, f.seq)
			} else {
				dups++
			}
		case r < 9 && len(accepted) > 0:
			i := rng.IntN(len(accepted))
			q.ack(accepted[i])
			accepted[i] = accepted[len(accepted)-1]
			accepted = accepted[:len(accepted)-1]
		default:
			if next == 0 {
				continue
			}
			if s := 1 + rng.Uint64N(next); delivery[s] {
				low := q.low(next + 1)
				if rng.IntN(2) == 0 {
					low = 0 // a stale stamp moves no mark
				}
				inflight = append(inflight, frame{s, low})
			}
		}
		if w.mark != maxStamp {
			t.Fatalf("step %d: mark %d, want the highest delivered stamp %d", step, w.mark, maxStamp)
		}
		if bound := int((next-maxStamp)/64) + 2; len(w.bits) > bound {
			t.Fatalf("step %d: bitmap holds %d words for seqs %d..%d (bound %d)",
				step, len(w.bits), maxStamp, next, bound)
		}
	}
	if dups == 0 {
		t.Fatal("no forged duplicate reached the screen")
	}
}
