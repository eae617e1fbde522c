package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// doResp is do with access to the response headers.
func doResp(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestV1CanonicalAndLegacyAliases: every route serves under /v1
// without deprecation marks, the unversioned spellings still answer —
// bytes identical — but carry the Deprecation header and a Link to
// their successor. Infrastructure endpoints (/healthz, /metrics) are
// unversioned and never deprecated.
func TestV1CanonicalAndLegacyAliases(t *testing.T) {
	ts := testService(t)

	for _, path := range []string{"/catalog", "/campaigns"} {
		v1 := doResp(t, http.MethodGet, ts.URL+api.PathPrefix+path, "")
		if v1.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1%s: %d", path, v1.StatusCode)
		}
		if v1.Header.Get(api.DeprecationHeader) != "" {
			t.Fatalf("canonical /v1%s marked deprecated", path)
		}

		legacy := doResp(t, http.MethodGet, ts.URL+path, "")
		if legacy.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, legacy.StatusCode)
		}
		if legacy.Header.Get(api.DeprecationHeader) != "true" {
			t.Fatalf("legacy %s missing %s header", path, api.DeprecationHeader)
		}
		link := legacy.Header.Get("Link")
		if !strings.Contains(link, api.PathPrefix+path) ||
			!strings.Contains(link, api.SuccessorRel) {
			t.Fatalf("legacy %s Link header %q does not name its successor", path, link)
		}
	}

	for _, path := range []string{"/healthz"} {
		resp := doResp(t, http.MethodGet, ts.URL+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if resp.Header.Get(api.DeprecationHeader) != "" {
			t.Fatalf("infrastructure endpoint %s marked deprecated", path)
		}
	}
}

// TestV1ServesFullFlow drives an entire campaign lifecycle through
// /v1 paths only: submit, status poll, results, listing, cancel of a
// second run — no legacy spelling anywhere.
func TestV1ServesFullFlow(t *testing.T) {
	ts := testService(t)

	code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns", micro)
	if code != http.StatusAccepted {
		t.Fatalf("v1 submit: %d %s", code, data)
	}
	var st runStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for st.Status != "done" {
		if st.Status == "failed" || st.Status == "canceled" || time.Now().After(deadline) {
			t.Fatalf("campaign: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
		code, data = do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID, "")
		if code != http.StatusOK {
			t.Fatalf("v1 status: %d %s", code, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
	}

	code, res := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/results", "")
	if code != http.StatusOK || !bytes.Contains(res, []byte(`"key"`)) {
		t.Fatalf("v1 results: %d %s", code, res)
	}

	// The legacy spelling returns the same bytes, just deprecated.
	code, legacy := do(t, http.MethodGet, ts.URL+"/campaigns/"+st.ID+"/results", "")
	if code != http.StatusOK || !bytes.Equal(res, legacy) {
		t.Fatalf("legacy results diverge from v1: %d", code)
	}

	code, data = do(t, http.MethodGet, ts.URL+"/v1/campaigns", "")
	if code != http.StatusOK {
		t.Fatalf("v1 list: %d", code)
	}
	var list api.RunList
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != st.ID {
		t.Fatalf("v1 list: %s", data)
	}
}

// TestCatalogAdvertisesPrecisionAxis: GET /v1/catalog tells clients
// what an adaptive submission may target — metrics and half-width
// bounds — and marks the registered adaptive campaign with its default
// precision block.
func TestCatalogAdvertisesPrecisionAxis(t *testing.T) {
	ts := testService(t)
	code, data := do(t, http.MethodGet, ts.URL+"/v1/catalog", "")
	if code != http.StatusOK {
		t.Fatalf("catalog: %d", code)
	}
	var cat api.CatalogResponse
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Names) == 0 || len(cat.Policies) == 0 {
		t.Fatalf("catalog missing names or policies: %s", data)
	}
	ax := cat.Precision
	if ax.MinHalfWidth != api.MinHalfWidth || ax.MaxHalfWidth != api.MaxHalfWidth {
		t.Fatalf("advertised precision bounds %+v", ax)
	}
	found := false
	for _, m := range ax.Metrics {
		if m == "coverage" {
			found = true
		}
	}
	if !found {
		t.Fatalf("precision axis does not offer coverage: %+v", ax)
	}
	adaptive := false
	for _, c := range cat.Campaigns {
		if c.Name == "relia-adaptive" {
			adaptive = true
			if c.Precision == nil || c.Precision.HalfWidth != 0.05 {
				t.Fatalf("relia-adaptive catalog entry lacks its precision block: %+v", c.Precision)
			}
		}
	}
	if !adaptive {
		t.Fatal("catalog does not list relia-adaptive")
	}
}

// TestSubmitInvalidPrecisionRejected: precision blocks outside the
// advertised bounds — or aimed at campaigns without fault-injection
// cells — come back as 400s that name what to fix.
func TestSubmitInvalidPrecisionRejected(t *testing.T) {
	ts := testService(t)
	cases := []struct {
		body string
		want string
	}{
		{`{"name":"relia","precision":{"half_width":0.5}}`, "half_width"},
		{`{"name":"relia","precision":{"half_width":0.0000001}}`, "0.001"},
		{`{"name":"relia","precision":{"metric":"latency","half_width":0.05}}`, "coverage"},
		{`{"name":"figure5","precision":{"half_width":0.05}}`, "fault"},
	}
	for _, c := range cases {
		code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns", c.body)
		if code != http.StatusBadRequest {
			t.Errorf("submit %s: code %d, want 400", c.body, code)
			continue
		}
		var e api.ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, c.want) {
			t.Errorf("submit %s: error %q does not name %q", c.body, e.Error, c.want)
		}
	}
}

// TestAdaptiveSubmitRunsToCompletion: an adaptive submission over /v1
// runs waves to retirement, echoes its normalized precision block in
// the status, and attributes the trials saved against the fixed
// worst case.
func TestAdaptiveSubmitRunsToCompletion(t *testing.T) {
	ts := testService(t)
	body := `{"name":"relia","scale":"quick",` +
		`"warmup":20000,"measure":60000,"timeslice":15000,` +
		`"workloads":["apache"],"seeds":[11],` +
		`"precision":{"half_width":0.2,"wave_trials":2,"min_trials":2,"max_trials":6}}`
	st := submitV1AndWait(t, ts, body)
	if st.Status != "done" {
		t.Fatalf("adaptive run: %+v", st)
	}
	if st.Precision == nil || st.Precision.MaxTrials != 6 || st.Precision.Metric != "coverage" {
		t.Fatalf("status does not echo the normalized precision block: %+v", st.Precision)
	}
	if st.Done != st.Jobs {
		t.Fatalf("adaptive run finished with %d/%d cells", st.Done, st.Jobs)
	}
	rep := st.Attribution
	if rep == nil || !rep.Adaptive {
		t.Fatalf("attribution not adaptive: %+v", rep)
	}
	if rep.TrialsFixed != st.Jobs*st.Precision.MaxTrials {
		t.Fatalf("fixed-equivalent %d, want cells x max = %d",
			rep.TrialsFixed, st.Jobs*st.Precision.MaxTrials)
	}
	if rep.TrialsScheduled <= 0 || rep.TrialsScheduled > rep.TrialsFixed {
		t.Fatalf("scheduled %d trials of fixed %d", rep.TrialsScheduled, rep.TrialsFixed)
	}
	if rep.CellsRetired != st.Jobs {
		t.Fatalf("retired %d cells of %d", rep.CellsRetired, st.Jobs)
	}

	code, res := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/results", "")
	if code != http.StatusOK || !bytes.Contains(res, []byte(`"key"`)) {
		t.Fatalf("adaptive results: %d %s", code, res)
	}
}

// TestAdaptiveWarmResubmitCountsCells: cache_hits counts cells, like
// done and jobs. A warm resubmit of an adaptive campaign whose cells
// each ran at least two waves serves every cell from the cache, so
// cache_hits equals jobs — not the number of waves served.
func TestAdaptiveWarmResubmitCountsCells(t *testing.T) {
	ts := testService(t)
	body := `{"name":"relia","scale":"quick",` +
		`"warmup":20000,"measure":60000,"timeslice":15000,` +
		`"workloads":["apache"],"seeds":[11],` +
		`"precision":{"half_width":0.2,"wave_trials":2,"min_trials":4,"max_trials":6}}`
	if st := submitV1AndWait(t, ts, body); st.Status != "done" || st.CacheHit != 0 {
		t.Fatalf("cold adaptive run: %+v", st)
	}
	st := submitV1AndWait(t, ts, body)
	if st.Status != "done" || st.Done != st.Jobs {
		t.Fatalf("warm adaptive run: %+v", st)
	}
	if st.CacheHit != st.Jobs {
		t.Fatalf("warm adaptive resubmit: cache_hits %d, want jobs %d", st.CacheHit, st.Jobs)
	}
}

// submitV1AndWait mirrors submitAndWait over the versioned paths.
func submitV1AndWait(t *testing.T, ts *httptest.Server, body string) runStatus {
	t.Helper()
	code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns", body)
	if code != http.StatusAccepted {
		t.Fatalf("v1 submit: %d %s", code, data)
	}
	var st runStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, data = do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID, "")
		if code != http.StatusOK {
			t.Fatalf("v1 status: %d %s", code, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case "done", "failed", "canceled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s", st.ID, st.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
