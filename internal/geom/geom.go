// Package geom provides the spatial primitives used by COLD's context
// generation: points in the plane, sampling regions, and the point
// processes that place PoPs (§3.1 of the paper).
//
// The default model places n PoPs independently and uniformly at random on
// the unit square (a 2D Poisson process conditional on n). Alternative
// region shapes (rectangles with arbitrary aspect ratio) and a bursty
// Thomas cluster process are provided because §7 of the paper evaluates the
// sensitivity of the synthesis to these context choices.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4f, %.4f)", p.X, p.Y) }

// DistanceMatrix returns the symmetric matrix of pairwise Euclidean
// distances between the given points.
func DistanceMatrix(pts []Point) [][]float64 {
	n := len(pts)
	d := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range d {
		d[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := pts[i].Dist(pts[j])
			d[i][j] = v
			d[j][i] = v
		}
	}
	return d
}

// Rect is an axis-aligned rectangle [X0,X1]×[Y0,Y1] used as a sampling
// region. The zero value is degenerate; use UnitSquare or NewRect.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// UnitSquare is the paper's default region.
func UnitSquare() Rect { return Rect{0, 0, 1, 1} }

// NewRect returns a rectangle with the given aspect ratio (width/height)
// and unit area, centered at (0.5, 0.5) scale-wise: width = sqrt(aspect),
// height = 1/sqrt(aspect). Aspect must be positive.
func NewRect(aspect float64) (Rect, error) {
	if aspect <= 0 || math.IsNaN(aspect) || math.IsInf(aspect, 0) {
		return Rect{}, fmt.Errorf("geom: aspect ratio must be positive and finite, got %v", aspect)
	}
	w := math.Sqrt(aspect)
	h := 1 / w
	return Rect{0, 0, w, h}, nil
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.X1 - r.X0 }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Y1 - r.Y0 }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Sample returns a point uniformly distributed in r.
func (r Rect) Sample(rng *rand.Rand) Point {
	return Point{
		X: r.X0 + rng.Float64()*r.Width(),
		Y: r.Y0 + rng.Float64()*r.Height(),
	}
}

// Diagonal returns the length of the rectangle's diagonal, the maximum
// possible distance between two points in the region. Waxman graphs use it
// as the distance normalizer L.
func (r Rect) Diagonal() float64 {
	return math.Hypot(r.Width(), r.Height())
}

// Uniform is the paper's default point process: n i.i.d. uniform points on
// Region (a 2D Poisson process conditional on the number of PoPs).
type Uniform struct {
	Region Rect
}

// NewUniform returns a Uniform process over the unit square.
func NewUniform() Uniform { return Uniform{Region: UnitSquare()} }

// Sample returns n i.i.d. uniform points.
func (u Uniform) Sample(n int, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = u.Region.Sample(rng)
	}
	return pts
}

// ThomasCluster is a bursty point process: cluster centers are uniform on
// Region and each PoP is a Gaussian displacement from a uniformly chosen
// center, reflected back into the region. It models the "bursty PoP
// locations" alternative the paper tests in §7. Larger Sigma approaches the
// uniform process; smaller Sigma is burstier.
type ThomasCluster struct {
	Region   Rect
	Clusters int     // number of cluster centers (must be >= 1)
	Sigma    float64 // std-dev of displacement, in region units (must be > 0)
}

// Sample returns n clustered points.
func (t ThomasCluster) Sample(n int, rng *rand.Rand) []Point {
	clusters := t.Clusters
	if clusters < 1 {
		clusters = 1
	}
	sigma := t.Sigma
	if sigma <= 0 {
		sigma = 0.05
	}
	centers := make([]Point, clusters)
	for i := range centers {
		centers[i] = t.Region.Sample(rng)
	}
	pts := make([]Point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		p := Point{
			X: c.X + rng.NormFloat64()*sigma,
			Y: c.Y + rng.NormFloat64()*sigma,
		}
		pts[i] = reflectInto(p, t.Region)
	}
	return pts
}

// reflectInto maps p into r by reflecting across the violated boundaries.
// Repeated reflection handles points that overshoot by more than one region
// width (possible for large sigma).
func reflectInto(p Point, r Rect) Point {
	p.X = reflect1D(p.X, r.X0, r.X1)
	p.Y = reflect1D(p.Y, r.Y0, r.Y1)
	return p
}

func reflect1D(x, lo, hi float64) float64 {
	w := hi - lo
	if w <= 0 {
		return lo
	}
	// Map into a period-2w sawtooth, then fold.
	t := math.Mod(x-lo, 2*w)
	if t < 0 {
		t += 2 * w
	}
	if t > w {
		t = 2*w - t
	}
	return lo + t
}

// Grid places points on a jittered sqrt(n)×sqrt(n) lattice over Region. It
// is not part of the paper's models but is useful in tests and as a
// low-variance context for debugging.
type Grid struct {
	Region Rect
	Jitter float64 // fraction of cell size, in [0,1)
}

// Sample returns n jittered lattice points.
func (g Grid) Sample(n int, rng *rand.Rand) []Point {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	cw := g.Region.Width() / float64(cols)
	ch := g.Region.Height() / float64(rows)
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		x := g.Region.X0 + (float64(c)+0.5)*cw
		y := g.Region.Y0 + (float64(r)+0.5)*ch
		if g.Jitter > 0 {
			x += (rng.Float64() - 0.5) * g.Jitter * cw
			y += (rng.Float64() - 0.5) * g.Jitter * ch
		}
		pts = append(pts, Point{X: x, Y: y})
	}
	return pts
}
