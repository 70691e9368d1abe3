package myrinet

import "testing"

// sealedFrame returns a sealed data frame with an n-byte payload on
// header values past every single-byte and 32-bit boundary.
func sealedFrame(n int) *Packet {
	p := &Packet{Src: 1700, Dst: 2047, Type: Data, Handler: 3, Seq: 1<<32 + 9, HeaderBytes: 16}
	p.Payload = make([]byte, n)
	for i := range p.Payload {
		p.Payload[i] = byte(i * 7)
	}
	p.Seal()
	return p
}

// TestFrameCheckCatchesInFlightMutation mutates one field of a sealed
// frame at a time and requires Verify to fail: every header field is
// covered at full width (a node id rewritten by +256 or a seq by +2^32
// must not alias the original), and so is every payload byte.
func TestFrameCheckCatchesInFlightMutation(t *testing.T) {
	type mutation struct {
		name   string
		mutate func(p *Packet)
	}
	header := []mutation{
		{"src+256", func(p *Packet) { p.Src += 256 }},
		{"dst+256", func(p *Packet) { p.Dst += 256 }},
		{"handler+256", func(p *Packet) { p.Handler += 256 }},
		{"seq+2^32", func(p *Packet) { p.Seq += 1 << 32 }},
		{"type", func(p *Packet) { p.Type = Retransmit }},
		{"payload-appended", func(p *Packet) { p.Payload = append(p.Payload, 0) }},
	}
	payload := []mutation{
		{"payload-first-byte", func(p *Packet) { p.Payload[0] ^= 1 }},
		{"payload-last-byte", func(p *Packet) { p.Payload[len(p.Payload)-1] ^= 0x80 }},
	}
	for _, size := range []int{0, 1, 112} {
		if p := sealedFrame(size); !p.Verify() {
			t.Fatalf("untouched %d-byte frame fails Verify", size)
		}
		cases := header
		if size > 0 {
			cases = append(cases[:len(cases):len(cases)], payload...)
		}
		for _, c := range cases {
			p := sealedFrame(size)
			c.mutate(p)
			if p.Verify() {
				t.Errorf("%d-byte frame: %s passes Verify", size, c.name)
			}
		}
	}
}

// TestFrameCheckResealCoversNewHeader checks the bounce path: a frame
// flipped in place and re-sealed verifies under its new header.
func TestFrameCheckResealCoversNewHeader(t *testing.T) {
	p := sealedFrame(112)
	p.Src, p.Dst = p.Dst, p.Src
	p.Type = Reject
	if p.Verify() {
		t.Fatal("flipped frame verifies before re-seal")
	}
	p.Seal()
	if !p.Verify() {
		t.Fatal("re-sealed frame fails Verify")
	}
}

// BenchmarkFrameCheck is one frame's check as the fabric pays it: Seal
// at injection and Verify at delivery of a 112-byte-payload frame.
func BenchmarkFrameCheck(b *testing.B) {
	p := sealedFrame(112)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seq = uint64(i)
		p.Seal()
		if !p.Verify() {
			b.Fatal("frame fails Verify")
		}
	}
}
