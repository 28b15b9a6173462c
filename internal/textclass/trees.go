package textclass

import (
	"math"
	"math/rand"
)

// node is one decision node of an ensemble's flat node array. A split node
// (feature >= 0) sends samples where the feature is present (x[feature] > 0)
// to right and the rest to left. A leaf (feature < 0) holds value: a class
// probability for the forest, a regression response for boosting.
type node struct {
	feature     int32
	left, right int32
	value       float64
}

// ensemble holds every tree of a model in one flat node array, each tree in
// pre-order; roots[t] is tree t's root. width bounds the split features, so
// a presence bitset of width bits answers every split.
type ensemble struct {
	nodes []node
	roots []int32
	width int
}

func (e *ensemble) leaf(value float64) int32 {
	e.nodes = append(e.nodes, node{feature: -1, value: value})
	return int32(len(e.nodes) - 1)
}

// split appends a split node on feature f; the caller links its children
// once they are grown, so each tree stays in pre-order.
func (e *ensemble) split(f int) int32 {
	e.nodes = append(e.nodes, node{feature: int32(f)})
	if f >= e.width {
		e.width = f + 1
	}
	return int32(len(e.nodes) - 1)
}

// eval walks the tree rooted at i over a presence bitset.
func (e *ensemble) eval(i int32, bits []uint64) float64 {
	for {
		n := &e.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if hasBit(bits, int(n.feature)) {
			i = n.right
		} else {
			i = n.left
		}
	}
}

// stackWords sizes the stack buffer behind presence: vocabularies of up to
// 8,192 split features classify without allocating.
const stackWords = 128

// presence sets bit f for every feature f of x with x[f] > 0 that some split
// can test, using buf when it is large enough.
func (e *ensemble) presence(x FeatureVector, buf *[stackWords]uint64) []uint64 {
	words := (e.width + 63) >> 6
	var bits []uint64
	if words <= stackWords {
		bits = buf[:words]
	} else {
		bits = make([]uint64, words)
	}
	for f, v := range x {
		if v > 0 && uint(f) < uint(e.width) {
			bits[f>>6] |= 1 << (uint(f) & 63)
		}
	}
	return bits
}

func hasBit(bits []uint64, i int) bool { return bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// columns is a training set's feature-major presence matrix: bit i of
// column f is set iff xs[i][f] > 0. Split scans test one column word per
// sample instead of probing each sample's map.
type columns struct {
	width int // features: one past the largest feature index
	words int // uint64 words per column
	bits  []uint64
}

// newColumns builds the presence matrix of xs; feature indices must be
// non-negative.
func newColumns(xs []FeatureVector) columns {
	width := 0
	for _, x := range xs {
		for f := range x {
			if f >= width {
				width = f + 1
			}
		}
	}
	c := columns{width: width, words: (len(xs) + 63) >> 6}
	c.bits = make([]uint64, width*c.words)
	for i, x := range xs {
		for f, v := range x {
			if v > 0 {
				c.bits[f*c.words+(i>>6)] |= 1 << (uint(i) & 63)
			}
		}
	}
	return c
}

func (c columns) col(f int) []uint64 { return c.bits[f*c.words : (f+1)*c.words] }

// partition splits idx by presence of feature f, keeping idx's order.
func (c columns) partition(f int, idx []int) (absent, present []int) {
	col := c.col(f)
	for _, i := range idx {
		if hasBit(col, i) {
			present = append(present, i)
		} else {
			absent = append(absent, i)
		}
	}
	return absent, present
}

// featurePool lists the distinct features keyed in a sample set, ascending.
func featurePool(xs []FeatureVector, idx []int, width int) []int {
	seen := make([]bool, width)
	for _, i := range idx {
		for f := range xs[i] {
			seen[f] = true
		}
	}
	var out []int
	for f, ok := range seen {
		if ok {
			out = append(out, f)
		}
	}
	return out
}

// --- Random forest -----------------------------------------------------------

// RandomForest is a bagged ensemble of Gini-split decision trees over
// presence features.
type RandomForest struct {
	trees    ensemble
	numTrees int
	maxDepth int
	minLeaf  int
	seed     int64
}

var _ Classifier = (*RandomForest)(nil)

// NewRandomForest returns an untrained forest with the default ensemble
// size.
func NewRandomForest() *RandomForest {
	return &RandomForest{numTrees: 40, maxDepth: 14, minLeaf: 2, seed: 17}
}

// Name implements Classifier.
func (rf *RandomForest) Name() string { return "Random forest" }

// Fit implements Classifier.
func (rf *RandomForest) Fit(xs []FeatureVector, ys []bool) {
	rng := rand.New(rand.NewSource(rf.seed))
	rf.trees = ensemble{roots: make([]int32, 0, rf.numTrees)}
	cols := newColumns(xs)
	n := len(xs)
	for t := 0; t < rf.numTrees; t++ {
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		pool := featurePool(xs, idx, cols.width)
		rf.trees.roots = append(rf.trees.roots, rf.grow(cols, ys, idx, pool, 0, rng))
	}
}

func (rf *RandomForest) grow(cols columns, ys []bool, idx, pool []int, depth int, rng *rand.Rand) int32 {
	pos := 0
	for _, i := range idx {
		if ys[i] {
			pos++
		}
	}
	prob := float64(pos) / float64(len(idx))
	if depth >= rf.maxDepth || len(idx) < 2*rf.minLeaf || pos == 0 || pos == len(idx) {
		return rf.trees.leaf(prob)
	}
	// mtry = sqrt(|pool|) random candidate features.
	mtry := int(math.Sqrt(float64(len(pool)))) + 1
	bestFeature, bestGain := -1, 0.0
	parentGini := gini(pos, len(idx))
	for k := 0; k < mtry; k++ {
		f := pool[rng.Intn(len(pool))]
		col := cols.col(f)
		lp, ln, rp, rn := 0, 0, 0, 0
		for _, i := range idx {
			if hasBit(col, i) {
				rn++
				if ys[i] {
					rp++
				}
			} else {
				ln++
				if ys[i] {
					lp++
				}
			}
		}
		if ln < rf.minLeaf || rn < rf.minLeaf {
			continue
		}
		total := float64(ln + rn)
		g := parentGini - (float64(ln)/total)*gini(lp, ln) - (float64(rn)/total)*gini(rp, rn)
		if g > bestGain {
			bestGain, bestFeature = g, f
		}
	}
	if bestFeature < 0 || bestGain < 1e-9 {
		return rf.trees.leaf(prob)
	}
	li, ri := cols.partition(bestFeature, idx)
	at := rf.trees.split(bestFeature)
	left := rf.grow(cols, ys, li, pool, depth+1, rng)
	right := rf.grow(cols, ys, ri, pool, depth+1, rng)
	rf.trees.nodes[at].left, rf.trees.nodes[at].right = left, right
	return at
}

func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// Predict implements Classifier.
func (rf *RandomForest) Predict(x FeatureVector) bool {
	var buf [stackWords]uint64
	bits := rf.trees.presence(x, &buf)
	sum := 0.0
	for _, root := range rf.trees.roots {
		sum += rf.trees.eval(root, bits)
	}
	return sum/float64(len(rf.trees.roots)) >= 0.5
}

// --- Boosted regression trees -------------------------------------------------

// BoostedTrees is a gradient-boosting ensemble of shallow regression trees
// on logistic loss — the "boosted regression trees" algorithm the paper
// selects for ReviewSolver (precision 91.4%, recall 92.0% in Table 2).
// Each iteration fits a depth-limited regression tree to the negative
// gradient (residual) and re-weights misclassified samples through the
// residuals, exactly the mechanism described in §3.2.2.
type BoostedTrees struct {
	trees     ensemble
	shrinkage float64
	numTrees  int
	maxDepth  int
	bias      float64
	seed      int64
}

var _ Classifier = (*BoostedTrees)(nil)

// NewBoostedTrees returns an untrained boosted ensemble.
func NewBoostedTrees() *BoostedTrees {
	return &BoostedTrees{shrinkage: 0.2, numTrees: 200, maxDepth: 6, seed: 23}
}

// Name implements Classifier.
func (bt *BoostedTrees) Name() string { return "Boosted regression trees" }

// Fit implements Classifier.
func (bt *BoostedTrees) Fit(xs []FeatureVector, ys []bool) {
	n := len(xs)
	y := make([]float64, n)
	pos := 0
	for i, label := range ys {
		if label {
			y[i] = 1
			pos++
		}
	}
	// Initial score: log-odds of the prior.
	p0 := (float64(pos) + 1) / (float64(n) + 2)
	bt.bias = math.Log(p0 / (1 - p0))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = bt.bias
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(bt.seed))
	cols := newColumns(xs)
	pool := featurePool(xs, idx, cols.width)
	residual := make([]float64, n)
	bt.trees = ensemble{roots: make([]int32, 0, bt.numTrees)}
	for t := 0; t < bt.numTrees; t++ {
		for i := range residual {
			p := sigmoid(scores[i])
			residual[i] = y[i] - p
		}
		root := bt.growRegression(cols, residual, scores, idx, pool, 0, rng)
		bt.trees.roots = append(bt.trees.roots, root)
	}
}

// growRegression grows one boosting round's tree over the samples idx
// (ascending) and adds each leaf's shrunken response to its samples' scores,
// which is what evaluating the finished tree on every sample would add.
func (bt *BoostedTrees) growRegression(cols columns, r, scores []float64, idx, pool []int, depth int, rng *rand.Rand) int32 {
	mean := meanOf(r, idx)
	leaf := func() int32 {
		for _, i := range idx {
			scores[i] += bt.shrinkage * mean
		}
		return bt.trees.leaf(mean)
	}
	if depth >= bt.maxDepth || len(idx) < 4 {
		return leaf()
	}
	// Sample a subset of candidate features per node.
	mtry := int(math.Sqrt(float64(len(pool))))*3 + 1
	bestFeature := -1
	bestScore := variance(r, idx) * float64(len(idx))
	parentScore := bestScore
	// SSE after split = Σr² - (Σ_l)²/n_l - (Σ_r)²/n_r ; Σr² is common, so
	// maximize the explained part.
	var sq float64
	for _, i := range idx {
		sq += r[i] * r[i]
	}
	for k := 0; k < mtry; k++ {
		f := pool[rng.Intn(len(pool))]
		col := cols.col(f)
		var ls, rs float64
		var lc, rc int
		for _, i := range idx {
			if hasBit(col, i) {
				rs += r[i]
				rc++
			} else {
				ls += r[i]
				lc++
			}
		}
		if lc < 2 || rc < 2 {
			continue
		}
		sse := sq - ls*ls/float64(lc) - rs*rs/float64(rc)
		if sse < bestScore-1e-12 {
			bestScore, bestFeature = sse, f
		}
	}
	if bestFeature < 0 || parentScore-bestScore < 1e-9 {
		return leaf()
	}
	li, ri := cols.partition(bestFeature, idx)
	at := bt.trees.split(bestFeature)
	left := bt.growRegression(cols, r, scores, li, pool, depth+1, rng)
	right := bt.growRegression(cols, r, scores, ri, pool, depth+1, rng)
	bt.trees.nodes[at].left, bt.trees.nodes[at].right = left, right
	return at
}

// Predict implements Classifier.
func (bt *BoostedTrees) Predict(x FeatureVector) bool { return bt.Score(x) >= 0.5 }

// FeatureImportances returns the gradient-boosting importance of each
// feature: the total absolute difference between the two child responses of
// every split on that feature, summed over the ensemble. Higher means the
// feature moves predictions more. Useful for inspecting what the review
// classifier learned (e.g. that "crash" and "cannot" dominate).
func (bt *BoostedTrees) FeatureImportances() map[int]float64 {
	out := make(map[int]float64)
	nodes := bt.trees.nodes
	// Array order is tree order, each tree in pre-order, so every feature's
	// sum accumulates in a fixed order.
	for _, n := range nodes {
		if n.feature >= 0 {
			out[int(n.feature)] += math.Abs(subtreeMean(nodes, n.left) - subtreeMean(nodes, n.right))
		}
	}
	return out
}

func subtreeMean(nodes []node, i int32) float64 {
	n := nodes[i]
	if n.feature < 0 {
		return n.value
	}
	return (subtreeMean(nodes, n.left) + subtreeMean(nodes, n.right)) / 2
}

// Score returns the positive-class probability; the review pipeline uses it
// for ranking ambiguous reviews.
func (bt *BoostedTrees) Score(x FeatureVector) float64 {
	var buf [stackWords]uint64
	bits := bt.trees.presence(x, &buf)
	score := bt.bias
	for _, root := range bt.trees.roots {
		score += bt.shrinkage * bt.trees.eval(root, bits)
	}
	return sigmoid(score)
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func meanOf(r []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += r[i]
	}
	return s / float64(len(idx))
}

func variance(r []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	m := meanOf(r, idx)
	s := 0.0
	for _, i := range idx {
		d := r[i] - m
		s += d * d
	}
	return s / float64(len(idx))
}
