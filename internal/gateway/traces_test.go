package gateway

import (
	"encoding/json"
	"net/http"
	"testing"

	"stochroute/internal/httpsvc"
	"stochroute/internal/obs"
)

// TestDebugTracesProxySpanNamesReplica: a proxied request's trace
// round-trips through /debug/traces JSON with the replica it was
// dispatched to on the proxy span — the one thing a gateway trace
// exists to show — in the same shape (span IDs, start offsets, attrs
// as a map, request_id / min_ms / errors filters) a replica serves.
func TestDebugTracesProxySpanNamesReplica(t *testing.T) {
	r1 := fakeReplica(t, "r1", 0)
	_, base := startGateway(t, Config{
		Replicas: []Replica{{ID: "r1", URL: r1.URL}},
		Tracer:   obs.NewTracer(obs.NewSpanStore(8, 0), 1),
	})
	req, err := http.NewRequest(http.MethodGet, base+"/route?source=1&dest=2&budget=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "via-gateway")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tp, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("sampled gateway response has no Traceparent: %q", resp.Header.Get("Traceparent"))
	}

	fetch := func(query string) httpsvc.TracesResponse {
		t.Helper()
		resp, err := http.Get(base + "/debug/traces" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out httpsvc.TracesResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("/debug/traces%s does not decode into the shared shape: %v", query, err)
		}
		return out
	}
	out := fetch("?request_id=via-gateway")
	if len(out.Traces) != 1 || out.Traces[0].TraceID != tp.TraceID || out.Traces[0].Endpoint != "/route" {
		t.Fatalf("traces for request via-gateway = %+v, want the one /route trace %s", out.Traces, tp.TraceID)
	}
	root := out.Traces[0].Root
	if root == nil || root.SpanID != tp.SpanID || len(root.Children) != 1 {
		t.Fatalf("root span = %+v, want the advertised root %s with one proxy child", root, tp.SpanID)
	}
	proxy := root.Children[0]
	if proxy.Name != "proxy" || proxy.Attrs["replica"] != "r1" {
		t.Errorf("proxy span = %q attrs %v, want proxy with replica=r1", proxy.Name, proxy.Attrs)
	}
	if proxy.SpanID == "" || proxy.StartMS < 0 || proxy.DurationMS <= 0 || proxy.StartMS+proxy.DurationMS > out.Traces[0].DurationMS+1e-6 {
		t.Errorf("proxy span %+v does not sit inside the %vms trace as a waterfall bar", proxy, out.Traces[0].DurationMS)
	}
	if slow := fetch("?min_ms=60000"); len(slow.Traces) != 0 || slow.Retained != 1 {
		t.Errorf("min_ms=60000: %d traces of %d retained, want 0 of 1", len(slow.Traces), slow.Retained)
	}
	if failed := fetch("?errors=true"); len(failed.Traces) != 0 {
		t.Errorf("errors=true returned %d traces of a clean request", len(failed.Traces))
	}
}
