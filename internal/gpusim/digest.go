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
// its start, end and CPU. An op contributes its rendered name and tag,
// each after its length, then its GPU, start and end, as OpByID reads
// them. A Result recorded without timelines digests its ops and
// makespan only.
func ResultDigest(r *Result) string {
	h := sha256.New()
	f := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	f(r.Makespan)
	var b []byte // one op's bytes
	for i := range r.Ops {
		o := &r.Ops[i]
		l := &r.Labels[o.Label]
		b = l.AppendName(append(b[:0], 0, 0, 0, 0), o.Iter)
		binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(l.Tag)))
		b = append(b, l.Tag...)
		for _, v := range [...]float64{float64(o.GPU), o.Start, o.End} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		h.Write(b)
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
