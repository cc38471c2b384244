package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	glign "github.com/glign/glign"
)

// serveTiny starts a glign.Server on a tiny graph, closed with the test.
func serveTiny(t *testing.T) (*glign.Graph, *glign.Server) {
	t.Helper()
	g, err := glign.Generate("LJ", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := glign.Serve(g, glign.ServeConfig{BatchSize: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
	return g, srv
}

// do hands h one request and returns the status and the body it answered.
func do(h http.Handler, method, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, "/", strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

func TestQueryHandler(t *testing.T) {
	g, srv := serveTiny(t)
	h := queryHandler(g, srv, 0)

	status, body := do(h, http.MethodPost, `{"kernel":"BFS","source":3,"targets":[3,4294967295]}`)
	if status != http.StatusOK {
		t.Fatalf("happy path: %d %s", status, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("happy path: %v in %s", err, body)
	}
	if resp.Kernel != "BFS" || resp.Source != 3 || resp.Reached < 1 || resp.Reached > g.NumVertices() {
		t.Errorf("happy path answered %+v", resp)
	}
	if v := resp.Values["3"]; v != 0.0 {
		t.Errorf("BFS value at its source = %v, want 0", v)
	}
	if v, ok := resp.Values["4294967295"]; !ok || v != nil {
		t.Errorf("a target past the graph = %v, %v, want null", v, ok)
	}
	// An SSWP or SSNP source is reached at an infinite value, which JSON
	// carries as a string.
	for kernel, want := range map[string]string{"SSWP": "+Inf", "SSNP": "-Inf"} {
		status, body := do(h, http.MethodPost, `{"kernel":"`+kernel+`","source":3,"targets":[3]}`)
		var resp queryResponse
		if err := json.Unmarshal([]byte(body), &resp); status != http.StatusOK || err != nil {
			t.Fatalf("%s: %d %s (%v)", kernel, status, body, err)
		}
		if v := resp.Values["3"]; v != want || resp.Reached < 1 {
			t.Errorf("%s answered %+v, want its source at %q", kernel, resp, want)
		}
	}

	for name, tc := range map[string]struct {
		method, body string
		want         int
	}{
		"oversized body":      {http.MethodPost, `{"kernel":"BFS","source":3,"targets":[` + strings.Repeat("1,", maxQueryBody/2) + `1]}`, http.StatusRequestEntityTooLarge},
		"malformed body":      {http.MethodPost, `{"kernel":`, http.StatusBadRequest},
		"bad kernel":          {http.MethodPost, `{"kernel":"NoSuchKernel","source":3}`, http.StatusBadRequest},
		"source out of range": {http.MethodPost, `{"kernel":"BFS","source":4294967295}`, http.StatusBadRequest},
		"bad priority":        {http.MethodPost, `{"kernel":"BFS","source":3,"priority":"urgent"}`, http.StatusBadRequest},
		"timeout overflow":    {http.MethodPost, `{"kernel":"BFS","source":3,"timeout_ms":9223372036854775807}`, http.StatusBadRequest},
		"wrong verb":          {http.MethodGet, ``, http.StatusMethodNotAllowed},
	} {
		if status, body := do(h, tc.method, tc.body); status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", name, status, strings.TrimSpace(body), tc.want)
		}
	}

	// The largest timeout that does not overflow is a deadline like any other.
	if status, body := do(h, http.MethodPost, `{"kernel":"SSSP","source":5,"timeout_ms":9223372036854}`); status != http.StatusOK {
		t.Errorf("largest timeout_ms: %d %s", status, body)
	}
}

func TestEpochHandler(t *testing.T) {
	_, srv := serveTiny(t)
	h := epochHandler(srv)
	epochOf := func(method string) int64 {
		t.Helper()
		status, body := do(h, method, "")
		var out map[string]int64
		if err := json.Unmarshal([]byte(body), &out); status != http.StatusOK || err != nil {
			t.Fatalf("%s /epoch: %d %s (%v)", method, status, body, err)
		}
		return out["epoch"]
	}
	before := epochOf(http.MethodGet)
	if bumped := epochOf(http.MethodPost); bumped != before+1 {
		t.Errorf("POST /epoch went %d -> %d, want one more", before, bumped)
	}
	if after := epochOf(http.MethodGet); after != before+1 {
		t.Errorf("GET /epoch after a bump = %d, want %d", after, before+1)
	}
	if status, _ := do(h, http.MethodDelete, ""); status != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /epoch: status %d, want %d", status, http.StatusMethodNotAllowed)
	}
}
