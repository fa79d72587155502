package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At failed")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Fatal("Row failed")
	}
	c := m.Clone()
	c.Set(1, 2, 9)
	if m.At(1, 2) != 5 {
		t.Fatal("Clone aliases")
	}
}

// fromRows builds a matrix from row slices.
func fromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("nn: ragged fromRows input")
		}
		copy(m.Row(i), r)
	}
	return m
}

func TestFromRows(t *testing.T) {
	m := fromRows([][]float32{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("fromRows wrong")
	}
	if e := fromRows(nil); e.Rows != 0 {
		t.Fatal("empty fromRows wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged fromRows accepted")
		}
	}()
	fromRows([][]float32{{1}, {2, 3}})
}

func TestMatMul(t *testing.T) {
	a := fromRows([][]float32{{1, 2}, {3, 4}})
	b := fromRows([][]float32{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := fromRows([][]float32{{19, 22}, {43, 50}})
	for i := range want.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want.Data)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 3)
	b := NewMatrix(4, 5)
	for i := range a.Data {
		a.Data[i] = rng.Float32()
	}
	for i := range b.Data {
		b.Data[i] = rng.Float32()
	}
	// aᵀ×b via explicit transpose.
	at := NewMatrix(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	got := MatMulATB(a, b)
	want := MatMul(at, b)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-5 {
			t.Fatal("MatMulATB mismatch")
		}
	}
	// a×bᵀ where shapes agree on Cols.
	c := NewMatrix(2, 3)
	d := NewMatrix(5, 3)
	for i := range c.Data {
		c.Data[i] = rng.Float32()
	}
	for i := range d.Data {
		d.Data[i] = rng.Float32()
	}
	dt := NewMatrix(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			dt.Set(j, i, d.At(i, j))
		}
	}
	got2 := MatMulABT(c, d)
	want2 := MatMul(c, dt)
	for i := range want2.Data {
		if math.Abs(float64(got2.Data[i]-want2.Data[i])) > 1e-5 {
			t.Fatal("MatMulABT mismatch")
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MatMul":    func() { MatMul(NewMatrix(2, 3), NewMatrix(4, 2)) },
		"MatMulATB": func() { MatMulATB(NewMatrix(2, 3), NewMatrix(4, 2)) },
		"MatMulABT": func() { MatMulABT(NewMatrix(2, 3), NewMatrix(4, 2)) },
		"NewMatrix": func() { NewMatrix(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

// numericalGrad estimates dLoss/dparam for a scalar loss function.
func numericalGrad(param []float32, i int, loss func() float64) float64 {
	const h = 1e-3
	orig := param[i]
	param[i] = orig + h
	lp := loss()
	param[i] = orig - h
	lm := loss()
	param[i] = orig
	return (lp - lm) / (2 * h)
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(3, 2, rng)
	x := NewMatrix(4, 3)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	target := NewMatrix(4, 2)
	for i := range target.Data {
		target.Data[i] = rng.Float32()
	}
	loss := func() float64 {
		y := l.Forward(x)
		var s float64
		for i := range y.Data {
			d := float64(y.Data[i] - target.Data[i])
			s += d * d
		}
		return s
	}
	// Analytical gradients.
	y := l.Forward(x)
	grad := NewMatrix(4, 2)
	for i := range y.Data {
		grad.Data[i] = 2 * (y.Data[i] - target.Data[i])
	}
	dx := l.Backward(grad)
	for i := 0; i < len(l.W.Data); i += 2 {
		num := numericalGrad(l.W.Data, i, loss)
		if math.Abs(num-float64(l.dW.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("dW[%d]: numeric %f analytic %f", i, num, l.dW.Data[i])
		}
	}
	for j := range l.B {
		num := numericalGrad(l.B, j, loss)
		if math.Abs(num-float64(l.dB[j])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("dB[%d]: numeric %f analytic %f", j, num, l.dB[j])
		}
	}
	for i := 0; i < len(x.Data); i += 3 {
		num := numericalGrad(x.Data, i, loss)
		if math.Abs(num-float64(dx.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("dx[%d]: numeric %f analytic %f", i, num, dx.Data[i])
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := fromRows([][]float32{{-1, 2}, {3, -4}})
	y := r.Forward(x)
	if y.At(0, 0) != 0 || y.At(0, 1) != 2 || y.At(1, 0) != 3 || y.At(1, 1) != 0 {
		t.Fatalf("ReLU forward = %v", y.Data)
	}
	g := r.Backward(fromRows([][]float32{{1, 1}, {1, 1}}))
	if g.At(0, 0) != 0 || g.At(0, 1) != 1 || g.At(1, 0) != 1 || g.At(1, 1) != 0 {
		t.Fatalf("ReLU backward = %v", g.Data)
	}
	if r.ParamCount() != 0 {
		t.Fatal("ReLU has params?")
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"linear": func() { NewLinear(1, 1, rand.New(rand.NewSource(1))).Backward(NewMatrix(1, 1)) },
		"relu":   func() { (&ReLU{}).Backward(NewMatrix(1, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMLPShapesAndParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{13, 512, 256}, true, rng)
	x := NewMatrix(2, 13)
	y := m.Forward(x)
	if y.Rows != 2 || y.Cols != 256 {
		t.Fatalf("MLP output %d×%d", y.Rows, y.Cols)
	}
	want := 13*512 + 512 + 512*256 + 256
	if m.ParamCount() != want {
		t.Fatalf("ParamCount = %d, want %d", m.ParamCount(), want)
	}
	// finalActivation=false keeps logits signed.
	m2 := NewMLP([]int{4, 8, 1}, false, rng)
	neg := false
	for trial := 0; trial < 20 && !neg; trial++ {
		x := NewMatrix(8, 4)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		out := m2.Forward(x)
		for _, v := range out.Data {
			if v < 0 {
				neg = true
			}
		}
	}
	if !neg {
		t.Fatal("logit head never produced a negative value; ReLU leak?")
	}
}

func TestMLPTooFewDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMLP([]int{3}, true, rand.New(rand.NewSource(1)))
}

func TestBCEWithLogits(t *testing.T) {
	logits := fromRows([][]float32{{0}, {0}})
	loss, grad := BCEWithLogits(logits, []float32{1, 0})
	if math.Abs(float64(loss)-math.Log(2)) > 1e-6 {
		t.Fatalf("BCE(0) = %f, want ln2", loss)
	}
	if math.Abs(float64(grad.At(0, 0))+0.25) > 1e-6 || math.Abs(float64(grad.At(1, 0))-0.25) > 1e-6 {
		t.Fatalf("BCE grad = %v", grad.Data)
	}
}

func TestBCEGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := NewMatrix(5, 1)
	labels := make([]float32, 5)
	for i := range labels {
		logits.Data[i] = rng.Float32()*4 - 2
		labels[i] = float32(rng.Intn(2))
	}
	_, grad := BCEWithLogits(logits, labels)
	for i := range logits.Data {
		num := numericalGrad(logits.Data, i, func() float64 {
			l, _ := BCEWithLogits(logits, labels)
			return float64(l)
		})
		if math.Abs(num-float64(grad.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("BCE dlogit[%d]: numeric %f analytic %f", i, num, grad.Data[i])
		}
	}
}

func TestBCEShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BCEWithLogits(NewMatrix(2, 2), []float32{1, 0})
}

func TestMLPTrainsXORishTask(t *testing.T) {
	// A small MLP must drive BCE loss down on a separable problem.
	rng := rand.New(rand.NewSource(42))
	m := NewMLP([]int{2, 16, 1}, false, rng)
	x := NewMatrix(64, 2)
	labels := make([]float32, 64)
	for i := 0; i < 64; i++ {
		a, b := rng.Float32()*2-1, rng.Float32()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a*b > 0 {
			labels[i] = 1
		}
	}
	var first, last float32
	for it := 0; it < 400; it++ {
		out := m.Forward(x)
		loss, grad := BCEWithLogits(out, labels)
		if it == 0 {
			first = loss
		}
		last = loss
		m.Backward(grad)
		m.Step(0.5)
	}
	if last > first*0.5 {
		t.Fatalf("loss did not decrease enough: first %f last %f", first, last)
	}
}

func TestLinearStepClearsGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLinear(2, 2, rng)
	x := NewMatrix(1, 2)
	x.Data[0], x.Data[1] = 1, 1
	l.Forward(x)
	l.Backward(fromRows([][]float32{{1, 1}}))
	l.Step(0.1)
	dW, dB := l.Gradients()
	for _, v := range dW.Data {
		if v != 0 {
			t.Fatal("dW not cleared")
		}
	}
	for _, v := range dB {
		if v != 0 {
			t.Fatal("dB not cleared")
		}
	}
}

// Property: MatMul distributes over addition: (a+b)×c == a×c + b×c.
func TestMatMulLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a, b, m := NewMatrix(r, k), NewMatrix(r, k), NewMatrix(k, c)
		for i := range a.Data {
			a.Data[i] = rng.Float32()
			b.Data[i] = rng.Float32()
		}
		for i := range m.Data {
			m.Data[i] = rng.Float32()
		}
		sum := NewMatrix(r, k)
		for i := range sum.Data {
			sum.Data[i] = a.Data[i] + b.Data[i]
		}
		left := MatMul(sum, m)
		ra, rb := MatMul(a, m), MatMul(b, m)
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-(ra.Data[i]+rb.Data[i]))) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
