package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSpanBeginEndEmitsNestedEvents(t *testing.T) {
	tr := NewTracer(64)
	sp := NewSpans(tr)

	root := sp.Begin("job", CompRunner, 0, 1, 0, 100)
	child := sp.Begin("chunk", CompRunner, 0, 1, root, 110)
	if root != 1 || child != 2 {
		t.Fatalf("span IDs not counter-allocated: root=%d child=%d", root, child)
	}
	sp.End(child, 150)
	sp.End(root, 200)

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("want 4 span events, got %d", len(evs))
	}
	want := []Event{
		{Cycle: 100, Span: 1, Name: "job", Comp: CompRunner, Kind: EvSpanBegin, Domain: 1},
		{Cycle: 110, Span: 2, Parent: 1, Name: "chunk", Comp: CompRunner, Kind: EvSpanBegin, Domain: 1},
		{Cycle: 150, Span: 2, Parent: 1, Name: "chunk", Comp: CompRunner, Kind: EvSpanEnd, Domain: 1},
		{Cycle: 200, Span: 1, Name: "job", Comp: CompRunner, Kind: EvSpanEnd, Domain: 1},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("span events:\ngot  %+v\nwant %+v", evs, want)
	}

	if got := len(sp.open); got != 0 {
		t.Fatalf("%d spans still open after End", got)
	}
}

func TestSpanEndUnknownAndNilAreNoOps(t *testing.T) {
	var sp *Spans
	if id := sp.Begin("x", CompSystem, 0, 0, 0, 1); id != 0 {
		t.Fatalf("nil recorder allocated ID %d", id)
	}
	sp.End(7, 2) // must not panic

	live := NewSpans(nil) // nil tracer: IDs still allocate
	if id := live.Begin("x", CompSystem, 0, 0, 0, 1); id != 1 {
		t.Fatalf("want ID 1 with nil tracer, got %d", id)
	}
	live.End(99, 2) // unknown ID ignored
	if got := len(live.open); got != 1 {
		t.Fatalf("open count = %d, want 1", got)
	}
}

func TestSpanContextEncodeParse(t *testing.T) {
	cases := []struct {
		in   SpanContext
		want string
	}{
		{SpanContext{}, ""},
		{SpanContext{Span: 42}, "42"},
		{SpanContext{Span: 42, Name: "stream/insecure"}, "42;stream/insecure"},
	}
	for _, c := range cases {
		if got := c.in.Encode(); got != c.want {
			t.Errorf("Encode(%+v) = %q, want %q", c.in, got, c.want)
		}
		if back := ParseSpanContext(c.want); back != c.in {
			t.Errorf("ParseSpanContext(%q) = %+v, want %+v", c.want, back, c.in)
		}
	}
	for _, bad := range []string{"abc", "-1", "1e3", ";name"} {
		if got := ParseSpanContext(bad); got != (SpanContext{}) {
			t.Errorf("ParseSpanContext(%q) = %+v, want zero", bad, got)
		}
	}
}

func TestSpanExportNests(t *testing.T) {
	tr := NewTracer(16)
	sp := NewSpans(tr)
	root := sp.Begin("batch", CompService, 3, 1, 0, 10)
	sp.Begin("fold", CompService, 3, 1, root, 12) // left open
	sp.End(root, 20)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"ph":"B","name":"batch"`,
		`"ph":"B","name":"fold"`,
		`"args":{"span":2,"parent":1,"domain":1}`,
		`"ph":"E","name":"batch"`,
		`"name":"shard 3"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("span export missing %q:\n%s", want, out)
		}
	}
}
