package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/model"
)

// The benchmark owns its transaction generator so the load cannot drift
// when internal/workload changes. It follows the auditing convention of
// package verify: an update touches every item of one group, writing one
// tuple per member node with Part=1..Total.

// writerNamespace is the fake origin of generator-minted tuple identities;
// real node ids are small, so they never collide with cluster txn ids.
const writerNamespace = model.NodeID(1 << 15)

// txn is one generated transaction plus what the checks need.
type txn struct {
	spec   *model.TxnSpec
	group  int
	update bool
	amount int64
}

// gen produces one reproducible stream. A run uses several streams (warm-up,
// one per client, the pacer), each seeded from (--seed, stream index); a
// stream is pulled by one goroutine.
type gen struct {
	w      *workloadDef
	rng    *rand.Rand
	stream int
	seq    uint64
	cdf    []float64 // cumulative Zipf weights; nil when uniform
}

func newGen(w *workloadDef, seed int64, stream int) *gen {
	g := &gen{w: w, stream: stream, rng: rand.New(rand.NewSource(seed*1000003 + int64(stream)))}
	if w.Zipf > 0 {
		g.cdf = make([]float64, w.Groups)
		sum := 0.0
		for i := range g.cdf {
			sum += math.Pow(float64(i+1), -w.Zipf)
			g.cdf[i] = sum
		}
	}
	return g
}

func groupKey(g int) string { return fmt.Sprintf("g%05d", g) }

// groupNodes places group g on Span consecutive nodes starting at g mod Nodes.
func groupNodes(w *workloadDef, g int) []model.NodeID {
	out := make([]model.NodeID, w.Span)
	for i := range out {
		out[i] = model.NodeID((g + i) % w.Nodes)
	}
	return out
}

func (g *gen) pickGroup() int {
	if g.cdf == nil {
		return g.rng.Intn(g.w.Groups)
	}
	x := g.rng.Float64() * g.cdf[len(g.cdf)-1]
	return sort.SearchFloat64s(g.cdf, x)
}

func (g *gen) next() *txn {
	isUpdate := g.rng.Float64() < g.w.UpdateFrac
	group := g.pickGroup()
	if isUpdate {
		return g.update(group)
	}
	return g.read(group)
}

// update is a root (a random member, doing no local work) fanning out one
// child per member node; each child appends one tuple and adds to two
// summary fields.
func (g *gen) update(group int) *txn {
	g.seq++
	writer := model.MakeTxnID(writerNamespace+model.NodeID(g.stream), g.seq)
	nodes := groupNodes(g.w, group)
	key := groupKey(group)
	amount := int64(g.rng.Intn(500) + 1)
	root := &model.SubtxnSpec{Node: nodes[g.rng.Intn(len(nodes))]}
	for i, n := range nodes {
		root.Children = append(root.Children, &model.SubtxnSpec{
			Node: n,
			Updates: []model.KeyOp{
				{Key: key, Op: model.AppendOp{T: model.Tuple{
					Txn: writer, Part: i + 1, Total: len(nodes), Attr: "chg", Amount: amount,
				}}},
				{Key: key, Op: model.AddOp{Field: "bal", Delta: amount}},
				{Key: key, Op: model.AddOp{Field: "count", Delta: 1}},
			},
		})
	}
	return &txn{
		spec:  &model.TxnSpec{Root: root, Label: fmt.Sprintf("u%d.%d", g.stream, g.seq)},
		group: group, update: true, amount: amount,
	}
}

// read covers every member of the group, or only the root's own item when
// the workload asks for local reads.
func (g *gen) read(group int) *txn {
	g.seq++
	nodes := groupNodes(g.w, group)
	key := groupKey(group)
	root := &model.SubtxnSpec{Node: nodes[g.rng.Intn(len(nodes))]}
	if g.w.LocalReads {
		root.Reads = []string{key}
	} else {
		for _, n := range nodes {
			root.Children = append(root.Children, &model.SubtxnSpec{Node: n, Reads: []string{key}})
		}
	}
	return &txn{
		spec:  &model.TxnSpec{Root: root, Label: fmt.Sprintf("r%d.%d", g.stream, g.seq)},
		group: group,
	}
}

// streamHash renders the first n transactions of one stream and hashes the
// bytes; equal seeds must give equal hashes.
func streamHash(w *workloadDef, seed int64, stream, n int) uint64 {
	g := newGen(w, seed, stream)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(g.next().spec.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
