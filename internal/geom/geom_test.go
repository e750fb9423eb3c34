package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 2}, 1},
		{Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceMatrix(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {0, 1}}
	d := DistanceMatrix(pts)
	if d[0][0] != 0 || d[1][1] != 0 || d[2][2] != 0 {
		t.Errorf("diagonal must be zero: %v", d)
	}
	if d[0][1] != 1 || d[0][2] != 1 {
		t.Errorf("unit distances wrong: %v", d)
	}
	if math.Abs(d[1][2]-math.Sqrt2) > 1e-12 {
		t.Errorf("d[1][2] = %v, want sqrt(2)", d[1][2])
	}
	for i := range d {
		for j := range d {
			if d[i][j] != d[j][i] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDistanceMatrixEmpty(t *testing.T) {
	if d := DistanceMatrix(nil); len(d) != 0 {
		t.Errorf("DistanceMatrix(nil) = %v, want empty", d)
	}
}

func TestDistanceMatrixTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := NewUniform().Sample(20, rng)
	d := DistanceMatrix(pts)
	for i := range d {
		for j := range d {
			for k := range d {
				if d[i][j] > d[i][k]+d[k][j]+1e-12 {
					t.Fatalf("triangle inequality violated: d[%d][%d]=%v > %v", i, j, d[i][j], d[i][k]+d[k][j])
				}
			}
		}
	}
}

func TestUnitSquare(t *testing.T) {
	r := UnitSquare()
	if r.Width() != 1 || r.Height() != 1 || r.Area() != 1 {
		t.Errorf("unit square wrong: %+v", r)
	}
	if math.Abs(r.Diagonal()-math.Sqrt2) > 1e-12 {
		t.Errorf("diagonal = %v, want sqrt 2", r.Diagonal())
	}
}

func TestNewRect(t *testing.T) {
	for _, aspect := range []float64{0.25, 1, 4, 10} {
		r, err := NewRect(aspect)
		if err != nil {
			t.Fatalf("NewRect(%v): %v", aspect, err)
		}
		if math.Abs(r.Area()-1) > 1e-12 {
			t.Errorf("NewRect(%v).Area() = %v, want 1", aspect, r.Area())
		}
		if math.Abs(r.Width()/r.Height()-aspect) > 1e-9 {
			t.Errorf("NewRect(%v) aspect = %v", aspect, r.Width()/r.Height())
		}
	}
}

func TestNewRectInvalid(t *testing.T) {
	for _, aspect := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewRect(aspect); err == nil {
			t.Errorf("NewRect(%v) should fail", aspect)
		}
	}
}

func TestUniformSampleInRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	u := NewUniform()
	pts := u.Sample(1000, rng)
	if len(pts) != 1000 {
		t.Fatalf("got %d points, want 1000", len(pts))
	}
	for _, p := range pts {
		if !u.Region.Contains(p) {
			t.Fatalf("point %v outside unit square", p)
		}
	}
}

func TestUniformSampleMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := NewUniform().Sample(20000, rng)
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	mx, my := sx/float64(len(pts)), sy/float64(len(pts))
	if math.Abs(mx-0.5) > 0.02 || math.Abs(my-0.5) > 0.02 {
		t.Errorf("uniform mean (%v, %v), want ~(0.5, 0.5)", mx, my)
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := NewUniform().Sample(50, rand.New(rand.NewSource(3)))
	b := NewUniform().Sample(50, rand.New(rand.NewSource(3)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different points at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestThomasClusterInRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tc := ThomasCluster{Region: UnitSquare(), Clusters: 5, Sigma: 0.05}
	pts := tc.Sample(500, rng)
	if len(pts) != 500 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !tc.Region.Contains(p) {
			t.Fatalf("clustered point %v escaped region", p)
		}
	}
}

func TestThomasClusterDefaults(t *testing.T) {
	// Zero-value Clusters/Sigma should be repaired, not crash.
	rng := rand.New(rand.NewSource(5))
	tc := ThomasCluster{Region: UnitSquare()}
	pts := tc.Sample(10, rng)
	if len(pts) != 10 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestThomasClusterIsBurstier(t *testing.T) {
	// Average nearest-neighbour distance should be smaller for the
	// clustered process than for uniform, at equal n.
	rng := rand.New(rand.NewSource(100))
	n := 200
	uni := NewUniform().Sample(n, rng)
	tc := ThomasCluster{Region: UnitSquare(), Clusters: 4, Sigma: 0.03}
	clu := tc.Sample(n, rng)
	if annd(clu) >= annd(uni) {
		t.Errorf("clustered ANND %v should be < uniform ANND %v", annd(clu), annd(uni))
	}
}

func annd(pts []Point) float64 {
	var total float64
	for i, p := range pts {
		best := math.Inf(1)
		for j, q := range pts {
			if i == j {
				continue
			}
			if d := p.Dist(q); d < best {
				best = d
			}
		}
		total += best
	}
	return total / float64(len(pts))
}

func TestReflect1D(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{0.5, 0, 1, 0.5},
		{-0.1, 0, 1, 0.1},
		{1.2, 0, 1, 0.8},
		{2.3, 0, 1, 0.3},
		{-1.5, 0, 1, 0.5},
		{0, 0, 1, 0},
		{1, 0, 1, 1},
	}
	for _, tt := range tests {
		if got := reflect1D(tt.x, tt.lo, tt.hi); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("reflect1D(%v, %v, %v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestReflect1DAlwaysInRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		got := reflect1D(x, 0, 1)
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := Grid{Region: UnitSquare()}
	pts := g.Sample(9, rng)
	if len(pts) != 9 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !g.Region.Contains(p) {
			t.Fatalf("grid point %v outside region", p)
		}
	}
	// Without jitter the first point sits at the first cell center.
	if pts[0].X != pts[3].X {
		t.Errorf("columns should align without jitter: %v vs %v", pts[0], pts[3])
	}
}

func TestGridZeroAndNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if pts := (Grid{Region: UnitSquare()}).Sample(0, rng); len(pts) != 0 {
		t.Errorf("Sample(0) returned %d points", len(pts))
	}
	if pts := (Grid{Region: UnitSquare()}).Sample(-3, rng); len(pts) != 0 {
		t.Errorf("Sample(-3) returned %d points", len(pts))
	}
}
