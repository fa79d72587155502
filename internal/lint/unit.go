package lint

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the dimension lattice's ground set: physical units as
// normalized products of atomic factors with integer exponents. A unit
// is what a `//rap:unit` annotation declares and what the dimcheck
// value-flow analysis propagates; "bytes/s" and "B/s" normalize to the
// same value, `mul`/`div` derive product and quotient units (bytes ÷ s
// → B/s), and additive compatibility is exact factor equality — MB and
// GB share the byte *dimension* but adding them without a conversion is
// precisely the bug class dimcheck exists to catch, so scale is part of
// the unit.

// unitAtoms maps every accepted atom spelling to its canonical form.
// Canonical atoms are chosen so rendered units read like the paper and
// the simulator docs (µs-based times, GB/s links).
var unitAtoms = map[string]string{
	// bytes at each scale ("bytes" is canonical so rendered messages
	// match the long-standing unitmix wording)
	"B": "bytes", "byte": "bytes", "bytes": "bytes",
	"KB": "KB", "MB": "MB", "GB": "GB", "TB": "TB",
	"KiB": "KiB", "MiB": "MiB", "GiB": "GiB",
	// bits (network rates quote them)
	"bit": "bit", "bits": "bit", "Kb": "Kb", "Mb": "Mb", "Gb": "Gb",
	// time
	"s": "s", "sec": "s", "secs": "s", "seconds": "s",
	"ms": "ms", "us": "us", "µs": "us", "ns": "ns",
	// counts and work
	"elem": "elem", "elems": "elem", "element": "elem", "elements": "elem",
	"flop": "flop", "flops": "flop",
	"sample": "sample", "samples": "sample",
	"iter": "iter", "iters": "iter", "iteration": "iter", "iterations": "iter",
	"op": "op", "ops": "op",
	"warp": "warp", "warps": "warp",
	// explicit dimensionless markers
	"1": "", "frac": "", "fraction": "", "ratio": "",
}

// rateAliases expand the compound-rate spellings the name-suffix
// heuristics already recognize into their factor form.
var rateAliases = map[string]string{
	"Bps": "B/s", "KBps": "KB/s", "MBps": "MB/s", "GBps": "GB/s",
	"bps": "bit/s", "Kbps": "Kb/s", "Mbps": "Mb/s", "Gbps": "Gb/s",
}

// unit is a normalized product of atomic unit factors: atom -> nonzero
// integer exponent, e.g. {B:1, s:-1} for bytes per second. The zero
// value (no factors) is the explicit dimensionless unit — distinct, in
// the lattice, from "unknown".
type unit struct {
	factors map[string]int
}

// dimensionless is the explicit unit of ratios and fractions.
func dimensionless() unit { return unit{factors: map[string]int{}} }

func (u unit) isDimensionless() bool { return len(u.factors) == 0 }

// equal is additive compatibility: exact factor-and-exponent equality.
func (u unit) equal(v unit) bool {
	if len(u.factors) != len(v.factors) {
		return false
	}
	for a, e := range u.factors {
		if v.factors[a] != e {
			return false
		}
	}
	return true
}

// mul derives the product unit (exponents add).
func (u unit) mul(v unit) unit {
	out := unit{factors: map[string]int{}}
	for a, e := range u.factors {
		out.factors[a] = e
	}
	for a, e := range v.factors {
		out.factors[a] += e
		if out.factors[a] == 0 {
			delete(out.factors, a)
		}
	}
	return out
}

// div derives the quotient unit (bytes ÷ s → B/s).
func (u unit) div(v unit) unit { return u.mul(v.pow(-1)) }

func (u unit) pow(n int) unit {
	out := unit{factors: map[string]int{}}
	for a, e := range u.factors {
		out.factors[a] = e * n
	}
	return out
}

// String renders the canonical spelling: numerator factors sorted,
// then "/" and the denominator, exponents as ^k. parseUnit(u.String())
// round-trips.
func (u unit) String() string {
	if len(u.factors) == 0 {
		return "1"
	}
	var num, den []string
	atoms := make([]string, 0, len(u.factors))
	for a := range u.factors {
		atoms = append(atoms, a)
	}
	sort.Strings(atoms)
	for _, a := range atoms {
		e := u.factors[a]
		switch {
		case e == 1:
			num = append(num, a)
		case e > 1:
			num = append(num, fmt.Sprintf("%s^%d", a, e))
		case e == -1:
			den = append(den, a)
		default:
			den = append(den, fmt.Sprintf("%s^%d", a, -e))
		}
	}
	switch {
	case len(num) == 0:
		return "1/" + strings.Join(den, "*")
	case len(den) == 0:
		return strings.Join(num, "*")
	default:
		return strings.Join(num, "*") + "/" + strings.Join(den, "*")
	}
}

// parseUnit parses a `//rap:unit` unit expression: atoms joined by "*"
// (or "·"), at most one "/" splitting numerator from denominator, and
// optional ^k exponents, e.g. "us", "GB/s", "B*elem/s", "s^2".
func parseUnit(s string) (unit, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return unit{}, fmt.Errorf("empty unit expression")
	}
	u := dimensionless()
	parts := strings.Split(s, "/")
	if len(parts) > 2 {
		return unit{}, fmt.Errorf("unit %q has more than one '/'", s)
	}
	for i, part := range parts {
		sign := 1
		if i == 1 {
			sign = -1
		}
		for _, tok := range strings.FieldsFunc(part, func(r rune) bool { return r == '*' || r == '·' }) {
			f, err := parseFactor(strings.TrimSpace(tok), sign)
			if err != nil {
				return unit{}, fmt.Errorf("unit %q: %v", s, err)
			}
			u = u.mul(f)
		}
	}
	return u, nil
}

// parseFactor parses one atom with an optional ^k exponent, applying
// sign to the exponent (sign=-1 for denominator factors).
func parseFactor(tok string, sign int) (unit, error) {
	if tok == "" {
		return unit{}, fmt.Errorf("empty factor")
	}
	exp := 1
	if base, pow, ok := strings.Cut(tok, "^"); ok {
		n := 0
		if _, err := fmt.Sscanf(pow, "%d", &n); err != nil || n == 0 {
			return unit{}, fmt.Errorf("bad exponent in %q", tok)
		}
		tok, exp = base, n
	}
	if expanded, ok := rateAliases[tok]; ok {
		r, err := parseUnit(expanded)
		if err != nil {
			return unit{}, err
		}
		return r.pow(exp * sign), nil
	}
	canon, ok := unitAtoms[tok]
	if !ok {
		return unit{}, fmt.Errorf("unknown unit atom %q", tok)
	}
	if canon == "" { // explicit dimensionless marker
		return dimensionless(), nil
	}
	return unit{factors: map[string]int{canon: exp * sign}}, nil
}

// suffixUnit infers a weak unit seed from an identifier's name suffix —
// the v1 unitmix heuristic, reused by dimcheck as a low-confidence
// seed. A name that is exactly a suffix (a constant named MB) is a
// conversion constant, not a unit-carrying value.
func suffixUnit(name string) (unit, bool) {
	for _, s := range dimSuffixes {
		if strings.HasSuffix(name, s.suffix) && len(name) > len(s.suffix) {
			return s.u, true
		}
	}
	return unit{}, false
}

// dimSuffixes is the suffix table in longest-first match order, each
// entry carrying its parsed unit. Built from the same spellings the
// retired v1 unitmix analyzer matched, plus the time and rate suffixes the
// simulator's µs-based naming uses.
var dimSuffixes = func() []struct {
	suffix string
	u      unit
} {
	specs := []struct{ suffix, expr string }{
		{"GiB", "GiB"}, {"MiB", "MiB"}, {"KiB", "KiB"},
		{"Gbps", "Gb/s"}, {"GBps", "GB/s"}, {"MBps", "MB/s"},
		{"Bytes", "B"},
		{"GBs", "GB/s"}, // the simulator's LinkGBs/CopyGBs naming
		{"GB", "GB"}, {"MB", "MB"}, {"KB", "KB"},
		{"Micros", "us"}, {"Us", "us"}, {"Usec", "us"},
		{"Millis", "ms"}, {"Msec", "ms"},
		{"Nanos", "ns"}, {"Nsec", "ns"},
	}
	out := make([]struct {
		suffix string
		u      unit
	}, len(specs))
	for i, sp := range specs {
		u, err := parseUnit(sp.expr)
		if err != nil {
			panic(fmt.Sprintf("lint: bad built-in suffix unit %q: %v", sp.expr, err))
		}
		out[i] = struct {
			suffix string
			u      unit
		}{sp.suffix, u}
	}
	return out
}()
