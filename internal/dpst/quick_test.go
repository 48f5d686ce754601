package dpst

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomTree grows a tree by repeatedly attaching children (alternating
// kinds) to random existing interior nodes, returning all nodes.
func randomTree(seed int64, size int) []*Node {
	rng := rand.New(rand.NewSource(seed))
	t := New()
	nodes := []*Node{t.Root()}
	interior := []*Node{t.Root()}
	for len(nodes) < size {
		parent := interior[rng.Intn(len(interior))]
		var kind Kind
		switch rng.Intn(3) {
		case 0:
			kind = AsyncNode
		case 1:
			kind = FinishNode
		default:
			kind = StepNode
		}
		n := t.NewChild(parent, kind)
		nodes = append(nodes, n)
		if kind != StepNode {
			interior = append(interior, n)
		}
	}
	return nodes
}

// naiveLCA finds the least common ancestor by materializing a's ancestor
// set.
func naiveLCA(a, b *Node) *Node {
	anc := map[*Node]bool{}
	for n := a; n != nil; n = n.Parent {
		anc[n] = true
	}
	for n := b; n != nil; n = n.Parent {
		if anc[n] {
			return n
		}
	}
	return nil
}

// naiveLeftOf decides depth-first order from the root paths.
func naiveLeftOf(a, b *Node) bool {
	l := naiveLCA(a, b)
	ca, cb := childToward(l, a), childToward(l, b)
	return ca != nil && cb != nil && ca.Seq < cb.Seq
}

// childToward returns the child of lca on the path to n (nil when n is
// the lca).
func childToward(lca, n *Node) *Node {
	var prev *Node
	for ; n != nil && n != lca; n = n.Parent {
		prev = n
	}
	_ = n
	return prev
}

// naiveDMHP re-states Theorem 1 from the naive primitives.
func naiveDMHP(a, b *Node) bool {
	if a == nil || b == nil || a == b {
		return false
	}
	l := naiveLCA(a, b)
	ca, cb := childToward(l, a), childToward(l, b)
	if ca == nil || cb == nil {
		return false
	}
	left := ca
	if cb.Seq < ca.Seq {
		left = cb
	}
	return left.Kind == AsyncNode
}

// deepWideTree grows a randomized tree of long chains (chain nodes deep,
// alternating async and finish) and wide fan-outs (fan siblings at a
// time), so queries cross deep shared prefixes and large sibling
// indices that randomTree's shallow growth rarely reaches.
func deepWideTree(seed int64, size, chain, fan int) []*Node {
	rng := rand.New(rand.NewSource(seed))
	t := New()
	nodes := []*Node{t.Root()}
	interior := []*Node{t.Root()}
	for len(nodes) < size {
		parent := interior[rng.Intn(len(interior))]
		switch rng.Intn(3) {
		case 0:
			n := parent
			for i := 0; i < chain; i++ {
				kind := AsyncNode
				if i%2 == 1 {
					kind = FinishNode
				}
				n = t.NewChild(n, kind)
				nodes = append(nodes, n)
				interior = append(interior, n)
			}
		case 1:
			for i := 0; i < fan; i++ {
				kind := AsyncNode
				if i%2 == 0 {
					kind = StepNode
				}
				n := t.NewChild(parent, kind)
				nodes = append(nodes, n)
				if kind != StepNode {
					interior = append(interior, n)
				}
			}
		default:
			nodes = append(nodes, t.NewChild(parent, StepNode))
		}
	}
	return nodes
}

// TestQuickLCAAgainstNaive: the §5.2 walk's LCA, LCA children and
// LeftOf must equal the ancestor-set answers for node pairs of random
// trees.
func TestQuickLCAAgainstNaive(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		nodes := randomTree(seed, 120)
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		return agreesWithNaiveLCA(a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDMHPAgainstNaive: Algorithm 3 and Relation must agree with
// the Theorem 1 restatement over naive primitives.
func TestQuickDMHPAgainstNaive(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		nodes := randomTree(seed, 120)
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		return agreesWithNaive(a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeepWideAgainstNaive: on deep-wide random trees every
// walk-backed query (LCA, Relate, LeftOf, DMHP, Relation) must equal
// its naive reference, so long shared prefixes and large sibling
// indices are covered.
func TestQuickDeepWideAgainstNaive(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		nodes := deepWideTree(seed, 160, 24, 9)
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		return agreesWithNaiveLCA(a, b) && agreesWithNaive(a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// agreesWithNaiveLCA reports whether LCA, Relate and LeftOf answer the
// pair (a, b) as the ancestor-set reference does.
func agreesWithNaiveLCA(a, b *Node) bool {
	l := naiveLCA(a, b)
	lca, ca, cb := Relate(a, b)
	return LCA(a, b) == l && lca == l &&
		ca == childToward(l, a) && cb == childToward(l, b) &&
		LeftOf(a, b) == naiveLeftOf(a, b)
}

// agreesWithNaive reports whether DMHP and Relation answer the pair
// (a, b) as the naive Theorem 1 restatement does.
func agreesWithNaive(a, b *Node) bool {
	want := naiveDMHP(a, b)
	p, d := Relation(a, b)
	return DMHP(a, b) == want && p == want && d == naiveLCA(a, b).Depth
}

// TestDeepTrunkAllPairsAgainstNaive compares every pair of a deep tree
// exhaustively — a trunk of depth 32 with two async branches, each
// ending in a step, hanging off every trunk node — so shared prefixes
// of every length are hit.
func TestDeepTrunkAllPairsAgainstNaive(t *testing.T) {
	tr := New()
	trunk := tr.Root()
	var all []*Node
	for d := 0; d < 32; d++ {
		kind := AsyncNode
		if d%3 == 1 {
			kind = FinishNode
		}
		trunk = tr.NewChild(trunk, kind)
		all = append(all, trunk)
		for b := 0; b < 2; b++ {
			n := tr.NewChild(trunk, AsyncNode)
			all = append(all, n, tr.NewChild(n, StepNode))
		}
	}
	for _, a := range all {
		for _, b := range all {
			if !agreesWithNaive(a, b) {
				p, d := Relation(a, b)
				t.Fatalf("Relation(%v,%v) = (%v,%d), naive (%v,%d)",
					a, b, p, d, naiveDMHP(a, b), naiveLCA(a, b).Depth)
			}
		}
	}
}

// TestWideFanOutAgainstNaive: sibling indices past 16 bits stay exact;
// Seq is a full int32, so no fan-out limit exists below that.
func TestWideFanOutAgainstNaive(t *testing.T) {
	tr := New()
	wide := tr.NewChild(tr.Root(), FinishNode)
	var sibs []*Node
	for i := 0; i < 1<<16+2; i++ {
		sibs = append(sibs, tr.NewChild(wide, AsyncNode))
	}
	first, last := sibs[0], sibs[len(sibs)-1]
	if last.Seq != 1<<16+2 {
		t.Fatalf("last sibling Seq = %d, want %d", last.Seq, 1<<16+2)
	}
	leaf := tr.NewChild(last, StepNode)
	other := tr.NewChild(tr.Root(), AsyncNode)
	pairs := [][2]*Node{
		{first, last}, {last, first}, {sibs[1<<14], sibs[1<<14+1]},
		{leaf, first}, {leaf, other}, {leaf, wide}, {last, other},
	}
	for _, p := range pairs {
		if !agreesWithNaive(p[0], p[1]) || LeftOf(p[0], p[1]) != naiveLeftOf(p[0], p[1]) {
			t.Errorf("pair (%v, %v) disagrees with naive", p[0], p[1])
		}
	}
}

// TestQuickDMHPSymmetric: DMHP is symmetric and irreflexive on any tree.
func TestQuickDMHPSymmetric(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		nodes := randomTree(seed, 80)
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		if a == b {
			return !DMHP(a, b)
		}
		return DMHP(a, b) == DMHP(b, a)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLeftOfTotalOrder: among leaves with a common proper LCA,
// LeftOf is a strict total order consistent with naive DFS order.
func TestQuickLeftOfTotalOrder(t *testing.T) {
	check := func(seed int64) bool {
		nodes := randomTree(seed, 100)
		var leaves []*Node
		for _, n := range nodes {
			if n.Kind == StepNode {
				leaves = append(leaves, n)
			}
		}
		for i := 0; i < len(leaves); i++ {
			for j := 0; j < len(leaves); j++ {
				a, b := leaves[i], leaves[j]
				if LeftOf(a, b) != naiveLeftOf(a, b) {
					return false
				}
				if a != b && LeftOf(a, b) == LeftOf(b, a) {
					return false // exactly one direction for distinct leaves
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPathInvariants: depth equals root-path length and sibling
// sequence numbers are dense from 1.
func TestQuickPathInvariants(t *testing.T) {
	check := func(seed int64) bool {
		nodes := randomTree(seed, 150)
		maxSeq := map[*Node]int32{}
		for _, n := range nodes {
			d := int32(0)
			for p := n.Parent; p != nil; p = p.Parent {
				d++
			}
			if d != n.Depth {
				return false
			}
			if n.Parent != nil {
				if n.Seq < 1 {
					return false
				}
				if n.Seq > maxSeq[n.Parent] {
					maxSeq[n.Parent] = n.Seq
				}
			}
		}
		counts := map[*Node]int32{}
		for _, n := range nodes {
			if n.Parent != nil {
				counts[n.Parent]++
			}
		}
		for p, c := range counts {
			if maxSeq[p] != c {
				return false // sequence numbers not dense
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
