package dpst

import "testing"

// deepPair builds two steps whose LCA is the root, depth levels above
// them — the worst case for the §5.2 walk (it pointer-chases both full
// root paths).
func deepPair(depth int) (*Node, *Node) {
	t := New()
	left, right := t.Root(), t.Root()
	for i := 0; i < depth; i++ {
		left = t.NewChild(left, AsyncNode)
	}
	for i := 0; i < depth; i++ {
		right = t.NewChild(right, FinishNode)
	}
	return t.NewChild(left, StepNode), t.NewChild(right, StepNode)
}

// benchDepths spans a shallow (8), a moderately deep (64), and a very
// deep (512) root path.
var benchDepths = []int{8, 64, 512}

// Sinks keep the measured calls' results live, so the compiler can
// neither drop an inlined query nor keep a new node on the stack.
var (
	sinkNode  *Node
	sinkBool  bool
	sinkDepth int32
)

func BenchmarkNewChild(b *testing.B) {
	t := New()
	parent := t.Root()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkNode = t.NewChild(parent, StepNode)
	}
}

func BenchmarkLCA(b *testing.B) {
	for _, depth := range benchDepths {
		s1, s2 := deepPair(depth)
		b.Run(itoa(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkNode = LCA(s1, s2)
			}
		})
	}
}

// BenchmarkDMHP is Algorithm 3 on a root-diverging pair.
func BenchmarkDMHP(b *testing.B) {
	for _, depth := range benchDepths {
		s1, s2 := deepPair(depth)
		b.Run(itoa(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBool = DMHP(s1, s2)
			}
		})
	}
}

// BenchmarkRelation measures the detector's actual hot-path query
// (parallelism + LCA depth in one shot).
func BenchmarkRelation(b *testing.B) {
	for _, depth := range benchDepths {
		s1, s2 := deepPair(depth)
		b.Run(itoa(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBool, sinkDepth = Relation(s1, s2)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
