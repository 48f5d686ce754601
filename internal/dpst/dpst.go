// Package dpst implements the Dynamic Program Structure Tree of Raman et
// al. (PLDI 2012, §3 and §5.1).
//
// The DPST is an ordered rooted tree built during execution of an
// async/finish program. Interior nodes are dynamic async and finish
// instances; leaves are steps (maximal computation sequences containing no
// task operation). Siblings are ordered left to right by creation order,
// which mirrors the sequential order of the computations in their common
// parent scope.
//
// The tree supports exactly the two queries race detection needs:
//
//   - LCA: the least common ancestor of two nodes, found by walking parent
//     pointers after equalizing depths (§5.2).
//   - DMHP: "dynamic may happen in parallel" — Theorem 1: two steps S1
//     (left) and S2 may run in parallel iff the ancestor of S1 that is a
//     child of LCA(S1,S2) is an async node.
//
// Concurrency. As in the paper's implementation (§5.1), no node field
// requires synchronization: Parent, Depth, Seq, and Kind are written once
// at creation and are immutable afterwards; the child counter of a node is
// only ever advanced by the single task that owns that scope, because a
// task appends new children either under a finish it itself started or
// under its own async node. Nodes become visible to other tasks only via
// the scheduler's task hand-off or the detector's atomic shadow-word
// stores, both of which establish the necessary happens-before edges.
package dpst

import (
	"fmt"
	"sync/atomic"
)

// Kind discriminates DPST node types.
type Kind uint8

const (
	// FinishNode represents a dynamic finish instance, including the
	// implicit finish that encloses main.
	FinishNode Kind = iota
	// AsyncNode represents a dynamic async (task) instance.
	AsyncNode
	// StepNode represents a step; steps are exactly the leaves.
	StepNode
)

func (k Kind) String() string {
	switch k {
	case FinishNode:
		return "finish"
	case AsyncNode:
		return "async"
	case StepNode:
		return "step"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node is one DPST node. All exported fields are immutable after creation
// (§5.1: parent, depth and seq_no are written only on initialization).
type Node struct {
	Parent *Node
	Depth  int32
	Seq    int32 // position among siblings, from 1, left to right
	Kind   Kind

	// nchildren counts this node's children so far. Only the task that
	// owns this scope appends children, so plain (non-atomic) access is
	// safe; see the package comment. (Placed here to share Kind's
	// padding hole; see NodeBytes.)
	nchildren int32

	ID int64 // unique per tree, in creation order; for reports
}

// NodeBytes is the heap size of one Node, used for the analytic
// footprint accounting that reproduces the paper's Table 3: a parent
// pointer, depth, seq, kind and ID — 32 bytes with padding, because
// nchildren sits in Kind's padding hole.
const NodeBytes = 32

// String renders a node as e.g. "step#17" for race reports.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s#%d", n.Kind, n.ID)
}

// Tree is a DPST under construction. The zero value is not usable; call
// New.
type Tree struct {
	root  *Node
	ids   atomic.Int64
	count atomic.Int64
}

// New creates a tree containing only the root finish node, which
// corresponds to the implicit finish enclosing the program's main body.
func New() *Tree {
	t := &Tree{}
	t.root = &Node{Kind: FinishNode, ID: 0}
	t.ids.Store(1)
	t.count.Store(1)
	return t
}

// Root returns the root finish node.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of nodes created so far.
func (t *Tree) Len() int64 { return t.count.Load() }

// Bytes returns the analytic size of the tree in bytes.
func (t *Tree) Bytes() int64 { return t.count.Load() * NodeBytes }

// NewChild appends a new rightmost child of parent and returns it.
// It takes O(1) time and, per the ownership discipline described in the
// package comment, must only be called by the task that owns the parent
// scope.
func (t *Tree) NewChild(parent *Node, kind Kind) *Node {
	parent.nchildren++
	n := &Node{
		Parent: parent,
		Depth:  parent.Depth + 1,
		Seq:    parent.nchildren,
		Kind:   kind,
		ID:     t.ids.Add(1) - 1,
	}
	t.count.Add(1)
	return n
}

// LCA returns the least common ancestor of a and b (§5.2).
func LCA(a, b *Node) *Node {
	lca, _, _ := Relate(a, b)
	return lca
}

// Relate returns the least common ancestor of a and b together with the
// child of the LCA on each side's path (childA is the ancestor-or-self of
// a that is a direct child of the LCA, and likewise childB). If one node
// is an ancestor of the other (possible only when a non-leaf is passed),
// the corresponding child is nil. Relate(a, a) returns (a, nil, nil).
//
// This is the §5.2 walk: walk the deeper node up to the shallower node's
// depth, then walk both up in lock step until they meet. Cost is linear
// in the longer root path; the detector puts a per-task memo in front of
// it (core.Detector.relation).
func Relate(a, b *Node) (lca, childA, childB *Node) {
	if a == nil || b == nil {
		return nil, nil, nil
	}
	for a.Depth > b.Depth {
		childA, a = a, a.Parent
	}
	for b.Depth > a.Depth {
		childB, b = b, b.Parent
	}
	for a != b {
		childA, a = a, a.Parent
		childB, b = b, b.Parent
	}
	return a, childA, childB
}

// LeftOf reports whether a appears before b in the depth-first traversal
// of the tree (Definition 3). Both must be distinct nodes of the same
// tree, neither an ancestor of the other.
func LeftOf(a, b *Node) bool {
	if a == nil || b == nil || a == b {
		return false
	}
	_, ca, cb := Relate(a, b)
	return ca != nil && cb != nil && ca.Seq < cb.Seq
}

// DMHP implements Algorithm 3: it reports whether steps s1 and s2 may
// happen in parallel in some schedule. By Theorem 1 this holds iff the
// child of LCA(s1,s2) on the left step's path is an async node. A step
// never runs in parallel with itself, and nil (no recorded access) is in
// parallel with nothing.
func DMHP(s1, s2 *Node) bool {
	p, _ := Relation(s1, s2)
	return p
}

// Relation answers, in one walk, everything the detector's read and
// write checks need about a pair of nodes: whether they may happen in
// parallel (Theorem 1) and the depth of their LCA. If one node is an
// ancestor of the other (possible only for interior nodes) they are not
// parallel. Relation(a, a) is (false, a.Depth); a nil operand yields
// (false, -1).
func Relation(a, b *Node) (parallel bool, lcaDepth int32) {
	if a == nil || b == nil {
		return false, -1
	}
	lca, ca, cb := Relate(a, b)
	if ca == nil || cb == nil {
		return false, lca.Depth
	}
	left := ca
	if cb.Seq < ca.Seq {
		left = cb
	}
	return left.Kind == AsyncNode, lca.Depth
}
