// Package workload generates the transaction mixes of the paper's
// application domain — data recording systems (Section 6): high-rate
// multi-node update transactions that insert observation tuples and
// bump summaries (all commuting), read-only inquiry transactions that
// must see globally consistent state, and (optionally) rare
// non-commuting administrative updates.
//
// Every generated update transaction follows the auditing convention of
// package verify: it touches every item of one "group" (a patient, an
// account, a stock item — data fragmented across nodes), writing one
// tuple per item with Part=1..Total, so a group read can be audited for
// atomic visibility without knowing the interleaving.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Kind classifies a generated transaction.
type Kind int

// Transaction kinds.
const (
	KindUpdate Kind = iota
	KindRead
	KindNonCommuting
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindUpdate:
		return "update"
	case KindRead:
		return "read"
	case KindNonCommuting:
		return "noncommuting"
	}
	return "unknown"
}

// Config parameterizes a Generator.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// Groups is the number of item groups ("patients"); each group g is
	// one item per member node, all named the same key.
	Groups int
	// Span is the number of nodes each group spans (the transaction
	// fan-out); clamped to Nodes.
	Span int
	// ReadFraction is the probability a generated transaction is a
	// group read.
	ReadFraction float64
	// NonCommutingFraction is the probability an update is a
	// non-commuting Set transaction (requires NC3V).
	NonCommutingFraction float64
	// AbortFraction is the probability a commuting update aborts at the
	// root (compensating its whole tree).
	AbortFraction float64
	// Seed makes the stream reproducible; 0 selects a fixed default.
	Seed int64
}

// Txn is one generated transaction plus the metadata the auditors and
// harness need.
type Txn struct {
	Spec  *model.TxnSpec
	Kind  Kind
	Group int
	// Writer is the tuple-identity of an update transaction (a
	// generator-minted id, distinct from the cluster's transaction id).
	Writer model.TxnID
	// Parts is the number of tuples the update writes (== group span).
	Parts int
	// Seq is the per-group update sequence number carried in the
	// "count" summary field; the harness derives read staleness from
	// it.
	Seq int64
	// Aborting marks an update generated with a root abort.
	Aborting bool
}

// Generator produces a reproducible transaction stream. Not safe for
// concurrent use; drivers pull from one goroutine (or shard by seed).
type Generator struct {
	cfg      Config
	rng      *rand.Rand
	seq      uint64
	groupSeq []int64
}

// writerNamespace is the fake origin node used for generator-minted
// tuple identities so they can never collide with cluster transaction
// ids (real node ids are small).
const writerNamespace = model.NodeID(1 << 15)

// New builds a generator, applying defaults: Groups=64, Span=2.
func New(cfg Config) *Generator {
	if cfg.Nodes <= 0 {
		panic("workload: Config.Nodes must be positive")
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 64
	}
	if cfg.Span <= 0 {
		cfg.Span = 2
	}
	if cfg.Span > cfg.Nodes {
		cfg.Span = cfg.Nodes
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1997
	}
	return &Generator{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		groupSeq: make([]int64, cfg.Groups),
	}
}

// GroupKey returns the node-local key name of group g.
func GroupKey(g int) string { return fmt.Sprintf("g%05d", g) }

// GroupNodes returns the member nodes of group g under the generator's
// placement: consecutive nodes starting at g mod Nodes.
func (g *Generator) GroupNodes(group int) []model.NodeID {
	out := make([]model.NodeID, g.cfg.Span)
	for i := range out {
		out[i] = model.NodeID((group + i) % g.cfg.Nodes)
	}
	return out
}

// PreloadSpecs enumerates every (node, key) pair a driver should
// preload with {"count":0, "bal":0} before starting the run.
func (g *Generator) PreloadSpecs() []struct {
	Node model.NodeID
	Key  string
} {
	var out []struct {
		Node model.NodeID
		Key  string
	}
	for grp := 0; grp < g.cfg.Groups; grp++ {
		for _, n := range g.GroupNodes(grp) {
			out = append(out, struct {
				Node model.NodeID
				Key  string
			}{n, GroupKey(grp)})
		}
	}
	return out
}

// Next produces the next transaction in the stream.
func (g *Generator) Next() Txn {
	r := g.rng.Float64()
	group := g.rng.Intn(g.cfg.Groups)
	switch {
	case r < g.cfg.ReadFraction:
		return g.read(group)
	case r < g.cfg.ReadFraction+(1-g.cfg.ReadFraction)*g.cfg.NonCommutingFraction:
		return g.nonCommuting(group)
	default:
		return g.update(group)
	}
}

// update builds a commuting group update: a front-end root (a random
// member node, doing no local work) fanning out one child per member
// node, each inserting a tuple and bumping the summaries — the Figure 1
// shape.
func (g *Generator) update(group int) Txn {
	g.seq++
	writer := model.MakeTxnID(writerNamespace, g.seq)
	nodes := g.GroupNodes(group)
	key := GroupKey(group)
	g.groupSeq[group]++
	seq := g.groupSeq[group]
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
	aborting := g.rng.Float64() < g.cfg.AbortFraction
	root.Abort = aborting
	if aborting {
		g.groupSeq[group]-- // an aborted update must not count toward staleness ground truth
		seq = g.groupSeq[group]
	}
	return Txn{
		Spec:     &model.TxnSpec{Root: root, Label: fmt.Sprintf("u%d", g.seq)},
		Kind:     KindUpdate,
		Group:    group,
		Writer:   writer,
		Parts:    len(nodes),
		Seq:      seq,
		Aborting: aborting,
	}
}

// read builds a group read covering every member item.
func (g *Generator) read(group int) Txn {
	g.seq++
	nodes := g.GroupNodes(group)
	key := GroupKey(group)
	root := &model.SubtxnSpec{Node: nodes[g.rng.Intn(len(nodes))]}
	for _, n := range nodes {
		root.Children = append(root.Children, &model.SubtxnSpec{Node: n, Reads: []string{key}})
	}
	return Txn{
		Spec:  &model.TxnSpec{Root: root, Label: fmt.Sprintf("r%d", g.seq)},
		Kind:  KindRead,
		Group: group,
		Seq:   g.groupSeq[group],
	}
}

// nonCommuting builds an administrative Set across the group (e.g. a
// price override), which must run under NC3V.
func (g *Generator) nonCommuting(group int) Txn {
	g.seq++
	nodes := g.GroupNodes(group)
	key := GroupKey(group)
	val := int64(g.rng.Intn(1000))
	root := &model.SubtxnSpec{Node: nodes[0], Updates: []model.KeyOp{
		{Key: key, Op: model.SetOp{Field: "override", Value: val}},
	}}
	for _, n := range nodes[1:] {
		root.Children = append(root.Children, &model.SubtxnSpec{
			Node:    n,
			Updates: []model.KeyOp{{Key: key, Op: model.SetOp{Field: "override", Value: val}}},
		})
	}
	return Txn{
		Spec:  &model.TxnSpec{Root: root, NonCommuting: true, Label: fmt.Sprintf("nc%d", g.seq)},
		Kind:  KindNonCommuting,
		Group: group,
		Seq:   g.groupSeq[group],
	}
}

// GroupSeq returns the current committed-update sequence number of a
// group (ground truth for staleness).
func (g *Generator) GroupSeq(group int) int64 { return g.groupSeq[group] }

// Hospital returns the Figure 1 configuration: a hospital with the
// given number of department databases; visits span two departments;
// a third of the traffic is patient inquiries.
func Hospital(nodes int, seed int64) Config {
	return Config{Nodes: nodes, Groups: 128, Span: 2, ReadFraction: 0.33, Seed: seed}
}

// CallRecording returns the Section 6 telephone configuration:
// high-rate recording with occasional billing inquiries; calls span two
// switches' databases.
func CallRecording(nodes int, seed int64) Config {
	return Config{Nodes: nodes, Groups: 512, Span: 2, ReadFraction: 0.05, Seed: seed}
}

// PointOfSale returns an inventory configuration with non-commuting
// price overrides mixed in.
func PointOfSale(nodes int, ncFraction float64, seed int64) Config {
	return Config{Nodes: nodes, Groups: 256, Span: 2, ReadFraction: 0.2, NonCommutingFraction: ncFraction, Seed: seed}
}
