package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
)

// sampleMessages returns one representative message per registered
// payload type, exercising every field including nested subtransaction
// trees, every op kind, tombstone tuples, and the reliable envelopes.
// The fuzz corpus seeds from the same set.
func sampleMessages() []transport.Message {
	deepSpec := &model.SubtxnSpec{
		Node:  1,
		Reads: []string{"acct:1", "acct:2"},
		Updates: []model.KeyOp{
			{Key: "acct:1", Op: model.AddOp{Field: "bal", Delta: -50}},
			{Key: "acct:1", Op: model.AppendOp{T: model.Tuple{Txn: model.MakeTxnID(1, 7), Part: 1, Total: 2, Attr: "bal", Amount: -50, TxnVersion: 3}}},
			{Key: "acct:2", Op: model.RemoveOp{T: model.Tuple{Txn: model.MakeTxnID(2, 9), Part: 2, Total: -2, Attr: "sold", Amount: 5, TxnVersion: 1}}},
		},
		Children: []*model.SubtxnSpec{
			{
				Node:    2,
				Updates: []model.KeyOp{{Key: "acct:3", Op: model.AddOp{Field: "bal", Delta: 50}}},
				Children: []*model.SubtxnSpec{
					{Node: 0, Reads: []string{"acct:4"}, Abort: true},
				},
			},
			{Node: 0, Updates: []model.KeyOp{{Key: "acct:5", Op: model.SetOp{Field: "bal", Value: 100}}}},
		},
	}
	ncSpec := &model.SubtxnSpec{
		Node: 0,
		Updates: []model.KeyOp{
			{Key: "acct:1", Op: model.SetOp{Field: "bal", Value: 10}},
			{Key: "acct:1", Op: model.ScaleOp{Field: "bal", Num: 11, Den: 10}},
		},
	}
	return []transport.Message{
		{From: 0, To: 1, Payload: core.SubtxnMsg{
			Txn: model.MakeTxnID(0, 42), Version: 3, Root: true, Assigned: true,
			Spec: deepSpec, RootNode: 0, SentAt: time.Unix(0, 1700000000123456789),
		}},
		{From: 1, To: 2, Payload: core.SubtxnMsg{
			Txn: model.MakeTxnID(1, 1), Version: 2, Spec: ncSpec,
			NC: true, RootNode: 1, Compensating: true,
		}},
		{From: 2, To: 0, Payload: core.SubtxnMsg{
			Txn: model.MakeTxnID(2, 3), Root: true, ReadOnly: true,
			Spec: &model.SubtxnSpec{Node: 0, Reads: []string{"acct:9"}},
		}},
		{From: 0, To: 1, Payload: core.SubtxnMsg{Txn: 1}}, // nil spec, zero SentAt
		{From: 3, To: 0, Payload: core.StartAdvancementMsg{NewVU: 4, Term: 7}},
		{From: 3, To: 0, Payload: core.StartAdvancementMsg{NewVU: 4}}, // unfenced (term 0)
		{From: 0, To: 3, Payload: core.AckAdvancementMsg{NewVU: 4, Node: 0}},
		{From: 3, To: 1, Payload: core.ReadVersionMsg{NewVR: 3, Term: 7}},
		{From: 1, To: 3, Payload: core.AckReadVersionMsg{NewVR: 3, Node: 1}},
		{From: 3, To: 2, Payload: core.GCMsg{Keep: 3, Term: 7}},
		{From: 2, To: 3, Payload: core.AckGCMsg{Keep: 3, Node: 2}},
		{From: 3, To: 0, Payload: core.CounterReqMsg{Version: 2, Round: 17, Term: 7}},
		{From: 0, To: 3, Payload: core.CounterReplyMsg{
			Version: 2, Round: 17, Node: 0,
			R: []int64{5, 0, 12, 3}, C: []int64{4, 1, 0, -2},
		}},
		{From: 1, To: 0, Payload: core.NCVoteMsg{Txn: model.MakeTxnID(0, 5), Node: 1, OK: true, Children: 2, Root: false}},
		{From: 0, To: 1, Payload: core.NCDecisionMsg{Txn: model.MakeTxnID(0, 5), Commit: true}},
		{From: 3, To: 2, Payload: core.VersionProbeMsg{Round: 2, Term: 7}},
		{From: 2, To: 3, Payload: core.VersionReplyMsg{Round: 2, Node: 2, VR: 1, VU: 2, BelowVR: true}},
		{From: 3, To: 1, Payload: core.UnlockMsg{Txn: model.MakeTxnID(1, 8)}},
		{From: 4, To: 1, Payload: core.CoordStateMsg{Term: 9, Coord: 4, VR: 3, VU: 4, Phase: 2}},
		{From: 1, To: 4, Payload: core.StaleTermMsg{Term: 10, Node: 1}},
		{From: 0, To: 2, Payload: reliable.DataMsg{Seq: 99, Payload: core.GCMsg{Keep: 5}}},
		{From: 2, To: 0, Payload: reliable.AckMsg{CumAck: 98}},
		{From: 0, To: 2, Payload: reliable.DataMsg{Seq: 100, Payload: reliable.NoopMsg{}}},
		{From: 0, To: 2, Payload: reliable.NoopMsg{}},
		// Traced messages: flag bit 0 adds the trace context to the header.
		{From: 1, To: 2, TC: obs.TraceContext{TraceID: uint64(model.MakeTxnID(1, 12)), SpanID: 1<<62 | 2<<48 | 7}, Payload: core.SubtxnMsg{
			Txn: model.MakeTxnID(1, 12), Version: 2, Spec: ncSpec, RootNode: 1,
		}},
		{From: 0, To: 2, TC: obs.TraceContext{TraceID: 42, SpanID: 42}, Payload: reliable.DataMsg{Seq: 101, Payload: core.UnlockMsg{Txn: 42}}},
		{From: 2, To: 1, Payload: core.SpanReportMsg{Spans: []obs.Span{
			{
				TraceID: uint64(model.MakeTxnID(1, 12)), SpanID: 1<<62 | 3<<48 | 9, ParentID: 1<<62 | 2<<48 | 7,
				Name: "subtxn", Node: 2, Start: 1700000000123456789, Dur: 250_000,
				Attr:   "t1.12",
				Stages: []obs.SpanStage{{Name: "wire", Dur: 90_000}, {Name: "fsync", Dur: 60_000}},
			},
			{TraceID: 7, SpanID: 7, Name: "txn", Node: 0, Start: 5, Dur: 10},
		}}},
		{From: 2, To: 1, Payload: core.SpanReportMsg{}}, // empty report
		{From: 3, To: 0, Payload: core.CountersReqMsg{Versions: []model.Version{2, 3}, Round: 17, Term: 7}},
		{From: 3, To: 0, Payload: core.CountersReqMsg{Round: 1}}, // no versions, unfenced
		{From: 0, To: 3, Payload: core.CountersMsg{
			Round: 17, Node: 0,
			Entries: []core.VersionCounters{
				{Version: 2, R: []int64{5, 0, 12, 3}, C: []int64{4, 1, 0, -2}},
				{Version: 3},
			},
		}},
		{From: 0, To: 3, Payload: core.CountersMsg{Round: 18, Node: 0}}, // no entries
		{From: 0, To: 1, Payload: core.SubtxnMsg{
			Txn: model.MakeTxnID(0, 3), Version: 3, Part: 1, Replica: true,
			Spec: &model.SubtxnSpec{Node: 1, Updates: []model.KeyOp{
				{Key: "acct:1", Op: model.AddOp{Field: "bal", Delta: 7}},
				{Key: "acct:2", Op: model.AppendOp{T: model.Tuple{Txn: model.MakeTxnID(0, 3), Part: 1, Total: 1, Attr: "bal", Amount: 7, TxnVersion: 3}}},
			}},
		}},
		// An aborted subtree replicates its ops and their inverses as-is.
		{From: 2, To: 0, Payload: core.SubtxnMsg{
			Txn: model.MakeTxnID(2, 9), Version: 4, Part: 0, Replica: true,
			Spec: &model.SubtxnSpec{Node: 0, Updates: []model.KeyOp{
				{Key: "acct:0", Op: model.AddOp{Field: "bal", Delta: 7}},
				{Key: "acct:0", Op: model.AddOp{Field: "bal", Delta: -7}},
			}},
		}},
		// Batched messages: one BatchMsg payload whose members keep their
		// own endpoints and trace contexts.
		{From: 0, To: 2, Payload: transport.BatchMsg{Msgs: []transport.Message{
			{From: 0, To: 2, Payload: reliable.DataMsg{Seq: 7, Payload: core.GCMsg{Keep: 5, Term: 7}}},
			{From: 0, To: 2, TC: obs.TraceContext{TraceID: 42, SpanID: 43}, Payload: reliable.DataMsg{Seq: 8, Payload: core.UnlockMsg{Txn: 42}}},
			{From: 2, To: 0, Payload: reliable.AckMsg{CumAck: 12}},
		}}},
		{From: 1, To: 0, Payload: transport.BatchMsg{}}, // empty batch
	}
}

func TestRoundTripEveryType(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("encode %T: %v", m.Payload, err)
		}
		if len(frame) < 5 {
			t.Fatalf("encode %T: frame too short (%d bytes)", m.Payload, len(frame))
		}
		got, err := DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("decode %T: %v", m.Payload, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("round trip %T:\n sent %+v\n got  %+v", m.Payload, m, got)
		}
	}
}

// TestRoundTripCoversRegistry fails if a payload type is registered but
// absent from the sample set — new message types must extend the
// round-trip coverage (and thereby the fuzz corpus).
func TestRoundTripCoversRegistry(t *testing.T) {
	covered := make(map[reflect.Type]bool)
	for _, m := range sampleMessages() {
		covered[reflect.TypeOf(m.Payload)] = true
	}
	for id, proto := range Prototypes() {
		if !covered[reflect.TypeOf(proto)] {
			t.Errorf("registered type %T (id %d) has no round-trip sample", proto, id)
		}
	}
}

// TestNamesMatchTransportRegistry pins the wire registry names to the
// transport payload-name registry (satellite: stable metric labels
// across processes). The two are registered in different packages;
// this is the contract check.
func TestNamesMatchTransportRegistry(t *testing.T) {
	for id, proto := range Prototypes() {
		wireName := TypeName(id)
		if wireName == "" {
			t.Errorf("type id %d has no wire name", id)
			continue
		}
		if tn := transport.PayloadName(proto); tn != wireName {
			t.Errorf("type %T: wire name %q but transport name %q", proto, wireName, tn)
		}
	}
	if TypeName(0) != "" || TypeName(9999) != "" {
		t.Error("TypeName must return \"\" for unknown ids")
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	good, err := AppendFrame(nil, sampleMessages()[0])
	if err != nil {
		t.Fatal(err)
	}
	body := good[4:]

	// Hand-built bodies. hdr is an untraced message header from node 0 to
	// node 1: flags 0, From 0, To 1 (zig-zag 2).
	hdr := []byte{0, 0, 2}
	frame := func(parts ...[]byte) []byte {
		b := []byte{FormatVersion}
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	noop := []byte{idReliableNoop}
	batchOf := func(n byte) []byte { return []byte{idBatch, n} }
	session := func(inner ...byte) []byte { return append([]byte{idReliableData, 1}, inner...) }

	// The well-formed shapes the corrupt rows below are built from.
	for name, data := range map[string][]byte{
		"noop":                    frame(hdr, noop),
		"traced noop":             frame([]byte{flagTraceContext, 42, 43, 0, 2}, noop),
		"batch of one":            frame(hdr, batchOf(1), hdr, noop),
		"session envelope":        frame(hdr, session(idReliableNoop)),
		"member session envelope": frame(hdr, batchOf(1), hdr, session(idReliableNoop)),
	} {
		if _, err := DecodeFrame(data); err != nil {
			t.Fatalf("%s: decode rejected a well-formed frame: %v", name, err)
		}
	}

	cases := map[string]struct {
		data []byte
		want error // nil: any error will do
	}{
		"empty":           {[]byte{}, ErrTruncated},
		"bad version":     {append([]byte{FormatVersion + 1}, body[1:]...), ErrVersion},
		"truncated":       {body[:len(body)/2], nil},
		"trailing":        {append(append([]byte{}, body...), 0), ErrTrailing},
		"unknown type id": {frame(hdr, []byte{0xFF, 0x7F}), ErrUnknownType},
		// Every retired generation fails on its version byte, never
		// half-parsed as the current layout.
		"generation 1 frame": {[]byte{1, 0, 2, idReliableNoop}, ErrVersion},
		"generation 2 frame": {[]byte{2, flagTraceContext, 42, 43, 0, 2, idReliableNoop}, ErrVersion},
		"generation 3 frame": {[]byte{3, 0, 2, idBatch, 1, 0, 0, 2, idReliableNoop}, ErrVersion},
		"generation 4 frame": {[]byte{4, 0, 0, 2, idReliableNoop}, ErrVersion},
		// A flag bit we don't know must be rejected, not half-parsed.
		"unknown top-level flag": {frame([]byte{0x02, 0, 2}, noop), ErrVersion},
		"unknown member flag":    {frame(hdr, batchOf(1), []byte{0x02, 0, 2}, noop), ErrVersion},
		"truncated trace ctx":    {frame([]byte{flagTraceContext, 0x80}), ErrTruncated},
		"unsampled trace ctx":    {frame([]byte{flagTraceContext, 0, 43, 0, 2}, noop), nil},
		// A batch is valid only as the frame's own payload, and a session
		// envelope may not wrap another.
		"batch in a member":                      {frame(hdr, batchOf(1), hdr, batchOf(0)), nil},
		"batch in a session envelope":            {frame(hdr, session(idBatch, 0)), nil},
		"session envelope in a session envelope": {frame(hdr, session(idReliableData, 2, idReliableNoop)), nil},
		"member count past the body":             {frame(hdr, batchOf(2), hdr, noop), nil},
	}
	for name, c := range cases {
		_, err := DecodeFrame(c.data)
		switch {
		case err == nil:
			t.Errorf("%s: decode accepted a corrupt frame", name)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}

// TestHeaderVersionGating pins the one header: untraced, traced and
// batched messages all open with the one version byte, then the same
// message layout — flags, the trace context only when flag bit 0 is set,
// endpoints, payload — and a batch member is written exactly as it would
// be as the frame's own message.
func TestHeaderVersionGating(t *testing.T) {
	plain := transport.Message{From: 0, To: 1, Payload: core.GCMsg{Keep: 3}}
	traced := plain
	traced.TC = obs.TraceContext{TraceID: 9, SpanID: 10}
	batched := transport.Message{From: 0, To: 1, Payload: transport.BatchMsg{Msgs: []transport.Message{plain, traced}}}

	body := func(m transport.Message) []byte {
		t.Helper()
		f, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFrame(f[4:])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip:\n sent %+v\n got  %+v", m, got)
		}
		return f[4:]
	}
	pb, tb, bb := body(plain), body(traced), body(batched)

	if pb[0] != FormatVersion || pb[1] != 0 {
		t.Fatalf("untraced header = % x, want version %d then flags 0", pb[:2], FormatVersion)
	}
	// Tracing adds flag bit 0 and the two uvarints, nothing else.
	wantTraced := append([]byte{FormatVersion, flagTraceContext, 9, 10}, pb[2:]...)
	if !bytes.Equal(tb, wantTraced) {
		t.Fatalf("traced body = % x, want % x", tb, wantTraced)
	}
	// A batch is the envelope's own untraced header, the batch id and
	// count, then each member's message bytes.
	wantBatch := append([]byte{FormatVersion, 0, 0, 2, idBatch, 2}, pb[1:]...)
	wantBatch = append(wantBatch, tb[1:]...)
	if !bytes.Equal(bb, wantBatch) {
		t.Fatalf("batched body = % x, want % x", bb, wantBatch)
	}
}

// TestBatchFrameFormat pins the batch contract: a BatchMsg is valid
// only as the frame's own payload, so encode refuses it anywhere else
// (decode refusals are rows of TestDecodeRejectsCorruptFrames), while
// members may be session envelopes and keep their own trace contexts
// and endpoints.
func TestBatchFrameFormat(t *testing.T) {
	for name, m := range map[string]transport.Message{
		"batch in a member": {From: 0, To: 1, Payload: transport.BatchMsg{Msgs: []transport.Message{
			{From: 0, To: 1, Payload: transport.BatchMsg{}},
		}}},
		"batch in a session envelope": {From: 0, To: 1, Payload: reliable.DataMsg{Seq: 1, Payload: transport.BatchMsg{}}},
		"batch in a member's session envelope": {From: 0, To: 1, Payload: transport.BatchMsg{Msgs: []transport.Message{
			{From: 0, To: 1, Payload: reliable.DataMsg{Seq: 1, Payload: transport.BatchMsg{}}},
		}}},
	} {
		if _, err := AppendFrame(nil, m); err == nil {
			t.Errorf("%s: encode accepted a nested batch", name)
		}
	}

	// Members may target different endpoints than the envelope and keep
	// their own trace contexts (tcpnet routes each member by its own To).
	mixed := transport.Message{From: 0, To: 5, Payload: transport.BatchMsg{Msgs: []transport.Message{
		{From: 0, To: 1, TC: obs.TraceContext{TraceID: 3, SpanID: 4}, Payload: core.UnlockMsg{Txn: 9}},
		{From: 0, To: 2, Payload: core.GCMsg{Keep: 1}},
	}}}
	mf, err := AppendFrame(nil, mixed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(mf[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mixed, got) {
		t.Fatalf("mixed-endpoint batch round trip:\n sent %+v\n got  %+v", mixed, got)
	}
}

func TestDecodeBoundsCollectionLengths(t *testing.T) {
	// A counter reply claiming 2^40 R entries in a 16-byte body must be
	// rejected before allocation, not after.
	body := []byte{FormatVersion, 0, 0, 6, idCounterReply, 2, 34, 0}
	body = append(body, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // uvarint 2^56
	if _, err := DecodeFrame(body); err == nil {
		t.Fatal("decode accepted an oversized collection length")
	}
}

func TestEncodeRejectsUnregisteredPayload(t *testing.T) {
	type mystery struct{}
	if _, err := AppendFrame(nil, transport.Message{Payload: mystery{}}); err == nil {
		t.Fatal("encode accepted an unregistered payload type")
	}
	if _, err := AppendFrame(nil, transport.Message{Payload: reliable.DataMsg{Seq: 1, Payload: reliable.DataMsg{Seq: 2, Payload: core.GCMsg{}}}}); err == nil {
		t.Fatal("encode accepted a nested session envelope")
	}
}

func TestAppendFrameReusesBuffer(t *testing.T) {
	msgs := sampleMessages()
	buf := make([]byte, 0, 4096)
	first, err := AppendFrame(buf, msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &buf[:1][0] {
		t.Fatal("AppendFrame reallocated despite sufficient capacity")
	}
	// A failed encode must roll the buffer back to its input length so
	// the caller's framing stays consistent.
	type mystery struct{}
	out, err := AppendFrame(first, transport.Message{Payload: mystery{}})
	if err == nil {
		t.Fatal("expected encode error")
	}
	if len(out) != len(first) {
		t.Fatalf("failed encode left %d bytes, want %d", len(out), len(first))
	}
}
