package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
)

// The tap is the benchmark's only instrument inside the running system: a
// transport.Network decorator passed as core.Config.Transport around the
// real mem or TCP network, so it sits under the session layer and sees
// session frames. It records one span per Send and per handler delivery,
// counts messages by payload type, and keeps the first messages for the
// replay kernels. Everything stays in memory until the run ends.

const (
	maxCaptured = 50000
	maxSpans    = 200000
)

// span is one timed call at a layer boundary. Trace is the transaction's
// trace id when the program head-sampled it (spans of one transaction share
// it), 0 otherwise.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Trace   uint64 `json:"trace,omitempty"`
	From    int    `json:"from"`
	To      int    `json:"to"`
	Payload string `json:"payload,omitempty"`
}

// recorder collects what every tap of one stack sees. on gates recording so
// warm-up traffic is left out.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	sendNs, sends       atomic.Int64
	deliverNs, delivers atomic.Int64

	mu     sync.Mutex
	byType map[string]int64
	msgs   []transport.Message
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), byType: map[string]int64{}}
}

// countPayload tallies a payload under its registered name, looking inside
// flush envelopes and session frames. Callers hold r.mu.
func (r *recorder) countPayload(p any) {
	switch v := p.(type) {
	case transport.BatchMsg:
		for _, m := range v.Msgs {
			r.countPayload(m.Payload)
		}
		return
	case reliable.DataMsg:
		r.countPayload(v.Payload)
	}
	r.byType[transport.PayloadName(p)]++
}

func (r *recorder) record(name string, m transport.Message, start time.Time, d time.Duration, capture bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if capture {
		r.countPayload(m.Payload)
		if len(r.msgs) < maxCaptured {
			r.msgs = append(r.msgs, m)
		}
	}
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{
			Name: name, StartNs: int64(start.Sub(r.epoch)), DurNs: int64(d),
			Trace: m.TC.TraceID, From: int(m.From), To: int(m.To),
			Payload: transport.PayloadName(m.Payload),
		})
	}
}

// addSpan records a span taken by the driver itself (around SubmitBatch).
func (r *recorder) addSpan(name string, start time.Time, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{Name: name, StartNs: int64(start.Sub(r.epoch)), DurNs: int64(d), From: -1, To: -1})
	}
}

func (r *recorder) typeCount(names ...string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, name := range names {
		n += r.byType[name]
	}
	return n
}

// writeSpans dumps the spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

type tap struct {
	inner transport.Network
	rec   *recorder
}

func newTap(inner transport.Network, rec *recorder) *tap { return &tap{inner: inner, rec: rec} }

func (t *tap) Register(id model.NodeID, h transport.Handler) {
	t.inner.Register(id, func(m transport.Message) {
		if !t.rec.on.Load() {
			h(m)
			return
		}
		start := time.Now()
		h(m)
		d := time.Since(start)
		t.rec.deliverNs.Add(int64(d))
		t.rec.delivers.Add(1)
		t.rec.record("transport.deliver", m, start, d, false)
	})
}

func (t *tap) Send(m transport.Message) {
	if !t.rec.on.Load() {
		t.inner.Send(m)
		return
	}
	start := time.Now()
	t.inner.Send(m)
	d := time.Since(start)
	t.rec.sendNs.Add(int64(d))
	t.rec.sends.Add(1)
	t.rec.record("transport.send", m, start, d, true)
}

func (t *tap) Start()                 { t.inner.Start() }
func (t *tap) Close()                 { t.inner.Close() }
func (t *tap) Stats() transport.Stats { return t.inner.Stats() }
