package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"clustersmt/internal/isa"
	"clustersmt/internal/trace"
)

// streamDigestLen is the number of uops each stream contributes.
const streamDigestLen = 4000

// streamDigest hashes n uops of next, field by field, so the digest pins
// the streams' content and not Uop's memory layout.
func streamDigest(h []byte, n int, next func() isa.Uop) []byte {
	for range n {
		u := next()
		h = binary.LittleEndian.AppendUint64(h, u.PC)
		h = binary.LittleEndian.AppendUint64(h, u.Addr)
		h = binary.LittleEndian.AppendUint16(h, uint16(u.Src1))
		h = binary.LittleEndian.AppendUint16(h, uint16(u.Src2))
		h = binary.LittleEndian.AppendUint16(h, uint16(u.Dst))
		h = append(h, byte(u.Class))
		if u.Taken {
			h = append(h, 1)
		} else {
			h = append(h, 0)
		}
	}
	return h
}

// TestStreamDigestsPinned pins the correct-path and wrong-path streams of
// every thread profile in the pool, so a rewrite of the generator's
// internals must reproduce every uop it used to emit. The wrong-path
// stream is seeded the way the core seeds it for the thread, and one
// wrong-path generator Reset from profile to profile, as a recycled
// processor resets its threads', must emit the same streams.
func TestStreamDigestsPinned(t *testing.T) {
	const (
		wantCorrect = "a6e7aaf14f5079072661cf00cd8a27375a97b15d8cd3e471c67835b3aa27b9cb"
		wantWrong   = "be37783c4332e9703668cf223f294209fb0e88edd2c5bb6131dd554405cc1bf4"
	)
	correct, wrong, reset := sha256.New(), sha256.New(), sha256.New()
	reused := trace.NewWrongPathGenerator(trace.MixProfile("first"), 1)
	var buf []byte
	for _, w := range Pool() {
		for i, p := range w.Threads {
			g := trace.NewGenerator(p, w.Seeds[i])
			buf = streamDigest(buf[:0], streamDigestLen, g.Next)
			correct.Write(buf)
			seed := (w.Seeds[i] ^ 0xabcdef) + uint64(i)*0x9e37
			wp := trace.NewWrongPathGenerator(p, seed)
			buf = streamDigest(buf[:0], streamDigestLen, wp.Next)
			wrong.Write(buf)
			reused.Reset(p, seed)
			buf = streamDigest(buf[:0], streamDigestLen, reused.Next)
			reset.Write(buf)
		}
	}
	if got := hex.EncodeToString(correct.Sum(nil)); got != wantCorrect {
		t.Errorf("correct-path streams changed: digest %s, want %s", got, wantCorrect)
	}
	if got := hex.EncodeToString(wrong.Sum(nil)); got != wantWrong {
		t.Errorf("wrong-path streams changed: digest %s, want %s", got, wantWrong)
	}
	if got := hex.EncodeToString(reset.Sum(nil)); got != wantWrong {
		t.Errorf("wrong-path streams of a Reset generator differ: digest %s, want %s", got, wantWrong)
	}
}
