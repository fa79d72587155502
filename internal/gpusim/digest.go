package gpusim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// ResultDigest hashes every observable field of a Result, including the
// exact bit patterns of all floats, so two results digest equal iff
// they are bit-identical. It is the currency of the engine-equivalence
// harness: the golden-digest suite pins 64 seeded DAGs against files
// captured from the pre-optimization engine. (Events is deliberately
// excluded: it is a diagnostic counter, not an observable of the
// simulated timeline, and the committed golden files predate it.) A GPU
// segment contributes its start, end, SM and bandwidth, a host segment
// its start, end and CPU. A Result recorded without timelines digests
// its ops and makespan only.
func ResultDigest(r *Result) string {
	h := sha256.New()
	f := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	str := func(s string) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	f(r.Makespan)
	for _, op := range r.Ops {
		str(op.Name)
		str(op.Tag)
		f(float64(op.GPU))
		f(op.Start)
		f(op.End)
	}
	for g := range r.Util {
		f(float64(len(r.Util[g])))
		for _, seg := range r.Util[g] {
			f(seg.Start)
			f(seg.End)
			f(seg.SM)
			f(seg.MemBW)
		}
	}
	f(float64(len(r.HostUtil)))
	for _, seg := range r.HostUtil {
		f(seg.Start)
		f(seg.End)
		f(seg.CPU)
	}
	return hex.EncodeToString(h.Sum(nil))
}
