package dbsp

import (
	"fmt"
	"strings"
	"testing"
)

// Deliver is the sequential reference for the engine's exchange: it
// moves every queued outbox message into its destination inbox and
// returns the h-relation degree, max over processors of max(sent,
// received). Inboxes are cleared first, messages are delivered in
// ascending sender order (send order preserved within a sender), and
// outboxes are cleared afterwards — the discipline the sequential
// simulators replicate so that final states coincide.
func Deliver(l Layout, ctxs [][]Word) (h int, err error) {
	for _, ctx := range ctxs {
		ctx[l.InCountOff()] = 0
	}
	received := make([]int, len(ctxs))
	for p, ctx := range ctxs {
		sent := int(ctx[l.OutCountOff()])
		if sent > h {
			h = sent
		}
		for k := 0; k < sent; k++ {
			dest := int(ctx[l.OutboxOff(k)])
			payload := ctx[l.OutboxOff(k)+1]
			dctx := ctxs[dest]
			n := int(dctx[l.InCountOff()])
			if n >= l.MaxMsgs {
				return 0, fmt.Errorf("inbox overflow at processor %d (MaxMsgs=%d)", dest, l.MaxMsgs)
			}
			dctx[l.InboxOff(n)] = Word(p)
			dctx[l.InboxOff(n)+1] = payload
			dctx[l.InCountOff()] = Word(n + 1)
			received[dest]++
		}
		ctx[l.OutCountOff()] = 0
	}
	for _, r := range received {
		if r > h {
			h = r
		}
	}
	return h, nil
}

// send is a handcrafted outbox entry for deliverCtxs.
type send struct {
	dest    int
	payload Word
}

// deliverCtxs builds v fresh contexts under l and queues each
// processor's sends directly in its outbox, bypassing Ctx so the tests
// exercise Deliver's own discipline in isolation.
func deliverCtxs(t *testing.T, l Layout, v int, sends [][]send) [][]Word {
	t.Helper()
	ctxs := make([][]Word, v)
	for p := range ctxs {
		ctxs[p] = make([]Word, l.Mu())
	}
	queueSends(t, l, ctxs, sends)
	return ctxs
}

// queueSends writes each processor's sends into its outbox.
func queueSends(t *testing.T, l Layout, ctxs [][]Word, sends [][]send) {
	t.Helper()
	for p := range ctxs {
		if p >= len(sends) {
			continue
		}
		if n := len(sends[p]); n > l.MaxMsgs {
			t.Fatalf("proc %d: %d sends exceed outbox capacity %d", p, n, l.MaxMsgs)
		}
		for k, s := range sends[p] {
			ctxs[p][l.OutboxOff(k)] = Word(s.dest)
			ctxs[p][l.OutboxOff(k)+1] = s.payload
		}
		ctxs[p][l.OutCountOff()] = Word(len(sends[p]))
	}
}

// requireExchangeMatchesDeliver runs the same sends through Deliver
// and through the engine at shard counts 1, 2, 3, v and v+7 — so
// senders and receivers fall on either side of shard boundaries — and
// requires identical h, error text, inboxes and cleared outboxes.
// prepare, when set, runs on every fresh context set before the sends
// are queued (to plant stale inbox state).
func requireExchangeMatchesDeliver(t *testing.T, l Layout, v int, sends [][]send, prepare func([][]Word)) {
	t.Helper()
	ref := deliverCtxs(t, l, v, nil)
	if prepare != nil {
		prepare(ref)
	}
	queueSends(t, l, ref, sends)
	wantH, wantErr := Deliver(l, ref)
	for _, shards := range []int{1, 2, 3, v, v + 7} {
		e, h, err := runExchange(l, v, sends, prepare, shards)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("shards=%d: exchange error %v, Deliver's %v", shards, err, wantErr)
		}
		if wantErr != nil {
			continue // inboxes are unspecified after an overflow
		}
		if h != wantH {
			t.Errorf("shards=%d: exchange h = %d, Deliver's %d", shards, h, wantH)
		}
		for p := 0; p < v; p++ {
			if got, want := inbox(l, e.ctxs, p), inbox(l, ref, p); !eqInbox(got, want) {
				t.Errorf("shards=%d proc %d: exchange inbox %v, Deliver's %v", shards, p, got, want)
			}
			if n := e.ctxs[p][l.OutCountOff()]; n != 0 {
				t.Errorf("shards=%d proc %d: outbox not cleared (count %d)", shards, p, n)
			}
		}
	}
}

// runExchange executes sends on a fresh v-processor engine at the given
// shard count the way a program would: one label-0 superstep whose
// handler replays each processor's planned sends through Ctx.Send, so
// the handler pass buckets the messages that leave their shard and the
// delivery pass reads the rest from the outboxes. prepare, when set,
// runs on the contexts first. It returns the engine and the step's h.
func runExchange(l Layout, v int, sends [][]send, prepare func([][]Word), shards int) (*shardEngine, int, error) {
	e := newShardEngine(&Program{Name: "exchange", V: v, Layout: l}, shards)
	if prepare != nil {
		prepare(e.ctxs)
	}
	replay := Superstep{Label: 0, Run: func(c *Ctx) {
		if c.ID() < len(sends) {
			for _, s := range sends[c.ID()] {
				c.Send(s.dest, s.payload)
			}
		}
	}}
	sc, err := e.runStep(replay, nil, true)
	return e, sc.H, err
}

// inbox reads back processor p's inbox as delivered (src, payload)
// pairs.
func inbox(l Layout, ctxs [][]Word, p int) []send {
	n := int(ctxs[p][l.InCountOff()])
	out := make([]send, n)
	for k := 0; k < n; k++ {
		out[k] = send{int(ctxs[p][l.InboxOff(k)]), ctxs[p][l.InboxOff(k)+1]}
	}
	return out
}

func eqInbox(a, b []send) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeliverEdgeCases pins the exact h-relation and buffer semantics
// of the superstep boundary: h is the max (not the sum) of per-
// processor sent and received counts, inboxes are filled in ascending
// sender order with send order preserved within a sender, overflow
// trips at exactly MaxMsgs, and a zero-message superstep clears stale
// inboxes.
func TestDeliverEdgeCases(t *testing.T) {
	l := Layout{Data: 1, MaxMsgs: 4}
	cases := []struct {
		name    string
		v       int
		sends   [][]send
		wantH   int
		inboxes map[int][]send // checked per listed processor
	}{
		{
			name: "h is max sent when fan-out dominates",
			v:    4,
			// Proc 0 sends 3 messages to distinct destinations; every
			// receiver gets 1. h = max(3, 1) = 3, not the total 3+0.
			sends: [][]send{{{1, 10}, {2, 20}, {3, 30}}},
			wantH: 3,
			inboxes: map[int][]send{
				0: {},
				1: {{0, 10}},
				2: {{0, 20}},
				3: {{0, 30}},
			},
		},
		{
			name: "h is max received when fan-in dominates",
			v:    4,
			// Three processors each send 1 message to proc 0.
			// h = max(1, 3) = 3, not the sum 3+3.
			sends: [][]send{nil, {{0, 11}}, {{0, 22}}, {{0, 33}}},
			wantH: 3,
			inboxes: map[int][]send{
				0: {{1, 11}, {2, 22}, {3, 33}},
			},
		},
		{
			name: "h never sums sent and received",
			v:    2,
			// A full exchange: each side sends 2 and receives 2.
			// h = max(2, 2) = 2, not 4.
			sends: [][]send{{{1, 1}, {1, 2}}, {{0, 3}, {0, 4}}},
			wantH: 2,
			inboxes: map[int][]send{
				0: {{1, 3}, {1, 4}},
				1: {{0, 1}, {0, 2}},
			},
		},
		{
			name: "ascending sender order, send order kept within sender",
			v:    4,
			// Senders are visited 0,1,2,... regardless of how the queue
			// interleaves, and a sender's own messages keep their send
			// order — proc 3's inbox must read 0,0,1,2 even though proc 2
			// appears before proc 0 in no ordering here.
			sends: [][]send{
				{{3, 100}, {3, 101}},
				{{3, 200}},
				{{3, 300}},
			},
			wantH: 4,
			inboxes: map[int][]send{
				3: {{0, 100}, {0, 101}, {1, 200}, {2, 300}},
			},
		},
		{
			name: "inbox fills to exactly MaxMsgs without overflow",
			v:    3,
			// Proc 0 receives MaxMsgs = 4 messages: full, legal.
			sends: [][]send{nil, {{0, 1}, {0, 2}}, {{0, 3}, {0, 4}}},
			wantH: 4,
			inboxes: map[int][]send{
				0: {{1, 1}, {1, 2}, {2, 3}, {2, 4}},
			},
		},
		{
			name:  "zero-message superstep",
			v:     3,
			sends: nil,
			wantH: 0,
			inboxes: map[int][]send{
				0: {}, 1: {}, 2: {},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctxs := deliverCtxs(t, l, tc.v, tc.sends)
			h, err := Deliver(l, ctxs)
			if err != nil {
				t.Fatalf("Deliver: %v", err)
			}
			if h != tc.wantH {
				t.Errorf("h = %d, want %d", h, tc.wantH)
			}
			for p, want := range tc.inboxes {
				if got := inbox(l, ctxs, p); !eqInbox(got, want) {
					t.Errorf("proc %d inbox = %v, want %v", p, got, want)
				}
			}
			for p := range ctxs {
				if n := ctxs[p][l.OutCountOff()]; n != 0 {
					t.Errorf("proc %d outbox not cleared (count %d)", p, n)
				}
			}
			requireExchangeMatchesDeliver(t, l, tc.v, tc.sends, nil)
		})
	}
}

// TestDeliverOverflowAtMaxMsgsPlusOne drives one message past the inbox
// capacity and checks the overflow is rejected with the offending
// processor named — by Deliver and, with the same text, by the shard
// exchange. The second case overflows two inboxes at once: the scan
// hits processor 1's message to 6 before processor 4's to 2, so 6 is
// named although 2 < 6, and any shard count that separates the two
// must reduce its shards' overflows to that same first one.
func TestDeliverOverflowAtMaxMsgsPlusOne(t *testing.T) {
	l := Layout{Data: 1, MaxMsgs: 2}
	for _, tc := range []struct {
		v      int
		sends  [][]send
		victim string
	}{
		// Procs 1 and 2 send 2 each to proc 0: the third delivery hits
		// n >= MaxMsgs.
		{3, [][]send{nil, {{0, 1}, {0, 2}}, {{0, 3}, {0, 4}}}, "processor 0"},
		{8, [][]send{{{6, 1}, {6, 1}}, {{6, 2}}, nil, {{2, 1}, {2, 1}}, {{2, 2}}}, "processor 6"},
	} {
		ctxs := deliverCtxs(t, l, tc.v, tc.sends)
		_, err := Deliver(l, ctxs)
		if err == nil {
			t.Fatal("overflow at MaxMsgs+1 not rejected")
		}
		if !strings.Contains(err.Error(), tc.victim) || !strings.Contains(err.Error(), "MaxMsgs=2") {
			t.Errorf("overflow error %q does not name %s and capacity", err, tc.victim)
		}
		requireExchangeMatchesDeliver(t, l, tc.v, tc.sends, nil)
	}
}

// TestDeliverOverflowOwnOutboxesAndBucket splits v = 8 over two shards
// so that, in the delivery pass, shard 0 overflows while reading its
// own outboxes and shard 1 while reading shard 0's bucket. The
// reported overflow must be whichever comes first in the global
// (src, idx) scan order — the own-outbox one in the first case, the
// bucket one in the second. Each case also sends inside shard 1 so
// that a delivery pass reading its own outboxes before the lower
// shards' buckets would report a different processor.
func TestDeliverOverflowOwnOutboxesAndBucket(t *testing.T) {
	l := Layout{Data: 1, MaxMsgs: 2}
	for _, tc := range []struct {
		name     string
		sends    [][]send
		ownFirst bool
		victim   string
	}{
		{
			// Shard 0 overflows processor 2 at (2, 0) from its own
			// outboxes; shard 1 overflows processor 6 at (3, 0) from
			// the bucket. Read before the bucket, processor 7's message
			// would make 6 overflow at (0, 1).
			name:     "own-outbox overflow first",
			sends:    [][]send{{{6, 1}, {6, 2}}, {{2, 3}, {2, 4}}, {{2, 5}}, {{6, 6}}, nil, nil, nil, {{6, 7}}},
			ownFirst: true,
			victim:   "processor 2",
		},
		{
			// Shard 1 overflows processor 5 at (1, 0) from the bucket;
			// shard 0 overflows processor 0 at (3, 0) from its own
			// outboxes. Read before the bucket, processors 4 and 5
			// would make 6 overflow at (5, 0), leaving shard 0's
			// overflow first.
			name:     "bucket overflow first",
			sends:    [][]send{{{5, 1}, {5, 2}}, {{5, 3}}, {{0, 4}, {0, 5}}, {{0, 6}}, {{6, 7}, {6, 8}}, {{6, 9}}},
			ownFirst: false,
			victim:   "processor 5",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, err := runExchange(l, 8, tc.sends, nil, 2)
			if err == nil || !strings.Contains(err.Error(), tc.victim) {
				t.Fatalf("2 shards: error %v, want an overflow at %s", err, tc.victim)
			}
			own, bucket := e.ovf[0], e.ovf[1]
			if lo, hi := e.span(0); !own.ok || own.src < lo || own.src >= hi {
				t.Fatalf("shard 0 overflow %+v is not from its own outboxes [%d, %d)", own, lo, hi)
			}
			if lo, _ := e.span(1); !bucket.ok || bucket.src >= lo {
				t.Fatalf("shard 1 overflow %+v is not from shard 0's bucket", bucket)
			}
			ownFirst := own.src < bucket.src || (own.src == bucket.src && own.idx < bucket.idx)
			if ownFirst != tc.ownFirst {
				t.Errorf("own-outbox overflow (%d, %d) first = %v against bucket overflow (%d, %d), want %v",
					own.src, own.idx, ownFirst, bucket.src, bucket.idx, tc.ownFirst)
			}
			requireExchangeMatchesDeliver(t, l, 8, tc.sends, nil)
		})
	}
}

// TestDeliverClearsStaleInbox pre-loads an inbox as a previous
// superstep would have left it and checks a delivery round with no
// messages wipes it: handlers must never observe last round's traffic.
func TestDeliverClearsStaleInbox(t *testing.T) {
	l := Layout{Data: 1, MaxMsgs: 3}
	ctxs := deliverCtxs(t, l, 2, nil)
	ctxs[1][l.InCountOff()] = 2
	ctxs[1][l.InboxOff(0)] = 0
	ctxs[1][l.InboxOff(0)+1] = 99
	h, err := Deliver(l, ctxs)
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if h != 0 {
		t.Errorf("h = %d for zero-message superstep, want 0", h)
	}
	if n := ctxs[1][l.InCountOff()]; n != 0 {
		t.Errorf("stale inbox count survived delivery: %d", n)
	}
	requireExchangeMatchesDeliver(t, l, 2, nil, func(ctxs [][]Word) {
		ctxs[1][l.InCountOff()] = 2
		ctxs[1][l.InboxOff(0)] = 0
		ctxs[1][l.InboxOff(0)+1] = 99
	})
}
