package dapper

import (
	"math"
	"strings"
	"testing"

	"dcmodel/internal/trace"
)

func sampleRequest() trace.Request {
	return trace.Request{
		ID: 7, Class: "read64K", Server: 2, Arrival: 1.0,
		Spans: []trace.Span{
			{Subsystem: trace.Network, Start: 1.0, Duration: 0.001, Bytes: 256},
			{Subsystem: trace.CPU, Start: 1.001, Duration: 0.0001, Util: 0.02, Bytes: 256},
			{Subsystem: trace.Memory, Start: 1.0011, Duration: 0.0001, Op: trace.OpRead, Bytes: 16384, Bank: 3},
			{Subsystem: trace.Storage, Start: 1.0012, Duration: 0.006, Op: trace.OpRead, Bytes: 65536, LBN: 42},
			{Subsystem: trace.CPU, Start: 1.0072, Duration: 0.0001, Util: 0.02, Bytes: 65536},
			{Subsystem: trace.Network, Start: 1.0073, Duration: 0.0005, Bytes: 65536},
		},
	}
}

func TestFromRequestToRequestRoundTrip(t *testing.T) {
	req := sampleRequest()
	tree := FromRequest(req)
	if tree.Count != 7 || tree.Depth() != 2 {
		t.Errorf("tree count=%d depth=%d", tree.Count, tree.Depth())
	}
	if tree.Latency() != req.Latency() {
		t.Errorf("tree latency %g, request latency %g", tree.Latency(), req.Latency())
	}
	back, err := ToRequest(tree)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != req.ID || back.Class != req.Class || back.Server != req.Server {
		t.Errorf("identity lost: %+v", back)
	}
	if len(back.Spans) != len(req.Spans) {
		t.Fatalf("spans = %d", len(back.Spans))
	}
	for i, s := range back.Spans {
		if s.Subsystem != req.Spans[i].Subsystem {
			t.Errorf("span %d subsystem %v", i, s.Subsystem)
		}
		if math.Abs(s.Start-req.Spans[i].Start) > 1e-12 ||
			math.Abs(s.Duration-req.Spans[i].Duration) > 1e-12 {
			t.Errorf("span %d timing lost", i)
		}
		// The paper's criticism: features do not survive the tree.
		if s.Bytes != 0 || s.LBN != 0 || s.Util != 0 {
			t.Errorf("span %d unexpectedly carries features", i)
		}
	}
	// Features survive only as annotations.
	rendered := tree.Render()
	if !strings.Contains(rendered, "lbn=42") || !strings.Contains(rendered, "bank=3") {
		t.Errorf("annotations missing:\n%s", rendered)
	}
}

func TestToRequestErrors(t *testing.T) {
	if _, err := ToRequest(&Tree{}); err == nil {
		t.Error("empty tree should fail")
	}
	bad := FromRequest(sampleRequest())
	bad.Root.Children[0].Span.Name = "rpc:oops"
	if _, err := ToRequest(bad); err == nil {
		t.Error("non-phase child should fail")
	}
	bad2 := FromRequest(sampleRequest())
	bad2.Root.Children[0].Span.Name = "phase:bogus"
	if _, err := ToRequest(bad2); err == nil {
		t.Error("unknown subsystem should fail")
	}
}
