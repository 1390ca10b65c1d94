package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"confmask"
	"confmask/internal/config"
	"confmask/internal/query"
	"confmask/internal/sim"
	"confmask/internal/topology"
)

// This file holds the query endpoint's transport to fixed bytes: whole
// NDJSON responses to the batches the two known clients send (the
// benchmark and `confmask query`, both through json.Marshal), and the
// status and body of every malformed-body shape, pinned to the values the
// reflection-based decoder and per-result json.Encoder produced.

// mixNet is what a bench-mix batch draws from: the real hosts, the
// routers and the router-to-router links of a network, as in the
// benchmark's query workload.
type mixNet struct {
	hosts, routers, links []string
}

func mixNetOf(tb testing.TB, configs map[string]string) mixNet {
	tb.Helper()
	net, err := config.ParseNetwork(configs)
	if err != nil {
		tb.Fatal(err)
	}
	view, err := sim.Build(net)
	if err != nil {
		tb.Fatal(err)
	}
	ni := mixNet{hosts: net.Hosts(), routers: net.Routers()}
	g := view.Topology()
	for _, e := range g.Edges() {
		if g.KindOf(e.A) == topology.Router && g.KindOf(e.B) == topology.Router {
			ni.links = append(ni.links, e.A+"<->"+e.B)
		}
	}
	return ni
}

// mix draws n queries between distinct real hosts, a quarter each of
// reachability, waypoint (via a random router), pathdiff and what-if (a
// random router link or router failed), the benchmark's query mix.
func (ni mixNet) mix(rng *rand.Rand, n int) []query.Query {
	kinds := []query.Kind{query.Reachability, query.Waypoint, query.PathDiff, query.WhatIf}
	qs := make([]query.Query, n)
	for i := range qs {
		src := ni.hosts[rng.Intn(len(ni.hosts))]
		dst := src
		for dst == src {
			dst = ni.hosts[rng.Intn(len(ni.hosts))]
		}
		q := query.Query{Kind: kinds[i%len(kinds)], Src: src, Dst: dst}
		switch q.Kind {
		case query.Waypoint:
			q.Via = ni.routers[rng.Intn(len(ni.routers))]
		case query.WhatIf:
			if len(ni.links) > 0 && rng.Intn(2) == 0 {
				q.FailLink = ni.links[rng.Intn(len(ni.links))]
			} else {
				q.FailNode = ni.routers[rng.Intn(len(ni.routers))]
			}
		}
		qs[i] = q
	}
	return qs
}

// oddBatch is a batch whose IDs, kinds and devices hold every byte class
// the response encoder treats specially — quotes, backslashes, control
// bytes, <>&, U+2028, U+2029, non-ASCII and invalid UTF-8 (which
// json.Marshal sends as U+FFFD) — plus each per-query error: unknown
// kind, missing kind, unknown devices, a garbled and a doubled failure.
func (ni mixNet) oddBatch() []query.Query {
	h0, h1, r0 := ni.hosts[0], ni.hosts[1], ni.routers[0]
	return []query.Query{
		{ID: `q"uote`, Kind: query.Reachability, Src: h0, Dst: h1},
		{ID: `back\slash`, Kind: query.Isolation, Src: h0, Dst: h1},
		{ID: "ctl\x00\x01\x1f\t\n\r\b\f\x7f", Kind: query.Waypoint, Src: h0, Dst: h1, Via: r0},
		{ID: "<html>&amp;", Kind: query.PathDiff, Src: h0, Dst: h1},
		{ID: "sep\u2028\u2029", Kind: query.WhatIf, Src: h0, Dst: h1, FailNode: r0},
		{ID: "café \U0001F600", Kind: query.WhatIf, Src: h0, Dst: h1, FailLink: ni.links[0]},
		{ID: "bad\xff\xfeutf8", Kind: query.Reachability, Src: h0, Dst: h1},
		{ID: "kind", Kind: `bo"gus<>`, Src: h0, Dst: h1},
		{ID: "nokind", Src: h0, Dst: h1},
		{ID: "src", Kind: query.Reachability, Src: `no"such\dev`, Dst: h1},
		{ID: "dst", Kind: query.Reachability, Src: h0, Dst: r0},
		{ID: "via", Kind: query.Waypoint, Src: h0, Dst: h1, Via: "<ghost>"},
		{ID: "garbled", Kind: query.WhatIf, Src: h0, Dst: h1, FailLink: "a-b"},
		{ID: "both", Kind: query.WhatIf, Src: h0, Dst: h1, FailNode: r0, FailLink: ni.links[0]},
		{ID: "ghostfail", Kind: query.WhatIf, Src: h0, Dst: h1, FailLink: r0 + "<->nowhere"},
		{Kind: query.Reachability, Src: h1, Dst: h0},
	}
}

// serve runs one request through the server's handler.
func serve(tb testing.TB, s *Server, method, path string, body []byte) (int, []byte) {
	tb.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// doneJob submits a catalog network with the default options and the
// given seed and waits for the job to finish.
func doneJob(tb testing.TB, s *Server, network string, seed int64) (id string, configs map[string]string) {
	tb.Helper()
	configs, err := confmask.GenerateExample(network)
	if err != nil {
		tb.Fatal(err)
	}
	opts := confmask.DefaultOptions()
	opts.Seed = seed
	body, err := json.Marshal(&Request{Configs: configs, Options: opts})
	if err != nil {
		tb.Fatal(err)
	}
	code, resp := serve(tb, s, http.MethodPost, "/v1/jobs", body)
	if code >= 300 {
		tb.Fatalf("submit %s: %d %s", network, code, resp)
	}
	var st Status
	if err := json.Unmarshal(resp, &st); err != nil {
		tb.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		_, resp := serve(tb, s, http.MethodGet, "/v1/jobs/"+st.ID, nil)
		if err := json.Unmarshal(resp, &st); err != nil {
			tb.Fatal(err)
		}
		if st.State == StateDone {
			return st.ID, configs
		}
		if st.State.Terminal() {
			tb.Fatalf("job %s on %s ended %s: %s", st.ID, network, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatalf("job on %s never finished", network)
	return "", nil
}

func marshalBatch(tb testing.TB, qs []query.Query) []byte {
	tb.Helper()
	body, err := json.Marshal(map[string]any{"queries": qs})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestQueryResponsePins posts fixed batches to done jobs on FatTree08 and
// two catalog networks and pins the sha256 of each whole NDJSON body,
// stats line included: three bench-mix batches of 256 queries (two
// result chunks each) and oddBatch. Each network's batches go in order to
// its own job, so the what-if counters on the stats lines depend on
// nothing outside the subtest. A table of malformed bodies then pins the
// status and body each one gets.
func TestQueryResponsePins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three anonymization jobs")
	}
	s := New(Config{Workers: 2, QueueDepth: 8, JobTimeout: 2 * time.Minute, MaxQueryBatch: 300})
	defer s.Shutdown(context.Background())

	pins := []struct {
		network string
		sums    [4]string // three bench-mix batches, then oddBatch
	}{
		{"FatTree08", [4]string{
			"a8ca93812d8049769643ad063f0c24415bd021763c5874aeff8212495988c188",
			"deffdc67f8876d412505a7829051b84b15fead37d04b35caafae1493b777d20f",
			"b702a48e7807b72963b4b3b586bf0a8bb9034aca2ae6731e5c6dffde1bae5fd9",
			"3fc1d2aa8d9345fc3591c59035783790f505760645279e7461cae3f932acc30b",
		}},
		{"Enterprise", [4]string{
			"43a09deed086c0e42d2198316ae8bc2b0c41e34a5b1cd7cfe0cadd4e95302712",
			"75889316dfacaa8ac2f8df25013246296bab23be32c7840b1004a4f43c74690b",
			"f6be26ed72f3d317ec17997739aafe540fb01ebf95b84dee086af0dde798c47f",
			"55b5c55dd6d194861b99fd913afaa6a49f9acf0b75f9da378560d845cfaf1e22",
		}},
		{"Bics", [4]string{
			"56272facf059f6d391f4874b0f86bcb81721e94ece23b22ed56f66fadd91aa06",
			"dce4238847a2b4d504cd404eadd39b690a8f1f8beb5ba38cff38a1e566eb339c",
			"c2304ce2431c11903203afed8080914f51771e2a40d8116561b26328f99cdaf6",
			"b5af17db988aca5f68a5d4d6e424e7dabd49952710336cd0aa59d150d39fb50b",
		}},
	}
	jobs := map[string]string{}
	nets := map[string]mixNet{}
	for _, p := range pins {
		id, configs := doneJob(t, s, p.network, 7)
		jobs[p.network], nets[p.network] = id, mixNetOf(t, configs)
	}
	for _, p := range pins {
		t.Run(p.network, func(t *testing.T) {
			ni := nets[p.network]
			for i, want := range p.sums {
				qs := ni.oddBatch()
				if i < 3 {
					qs = ni.mix(rand.New(rand.NewSource(int64(100+i))), 256)
				}
				code, body := serve(t, s, http.MethodPost, "/v1/jobs/"+jobs[p.network]+"/query", marshalBatch(t, qs))
				if code != http.StatusOK {
					t.Fatalf("batch %d: status %d: %s", i, code, body)
				}
				if got := sum(body); got != want {
					t.Errorf("batch %d: body sha256 %s, want %s\n%s", i, got, want, body)
				}
			}
		})
	}

	// Malformed and unusual bodies, against the Enterprise job. A 200's
	// body is pinned by sha256, any other by its text.
	ni := nets["Enterprise"]
	cases := malformedBodies(ni.hosts[0], ni.hosts[1])
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := serve(t, s, http.MethodPost, "/v1/jobs/"+jobs["Enterprise"]+"/query", []byte(c.body))
			got := string(body)
			if code == http.StatusOK {
				got = sum(body)
			}
			if code != c.status || got != c.want {
				t.Errorf("status %d, body %q; want %d, %q\n%s", code, got, c.status, c.want, body)
			}
		})
	}
}

// malformedBody is a request body the query endpoint must answer as the
// reflection-based decoder did: with status and, for a 200, a body of
// sha256 want, else the body want.
type malformedBody struct {
	name, body string
	status     int
	want       string
}

// malformedBodies returns the bodies TestQueryResponsePins pins, their
// well-formed queries asking whether h0 reaches h1: a syntax error, a
// number for kind, null, an unknown key, a case-folded key, a duplicate
// key, escapes, invalid UTF-8, a bare array, bytes trailing the object,
// an empty batch and an oversized one, among others.
func malformedBodies(h0, h1 string) []malformedBody {
	reach := fmt.Sprintf(`{"kind":"reachability","src":%q,"dst":%q}`, h0, h1)
	over := strings.TrimSuffix(strings.Repeat(reach+",", 301), ",")
	return []malformedBody{
		{"syntax error", `{"queries":[` + reach + `,]}`, 400, "{\"error\":\"invalid query batch: invalid character ']' looking for beginning of value\"}\n"},
		{"number kind", `{"queries":[{"kind":5,"src":"a","dst":"b"}]}`, 400, "{\"error\":\"invalid query batch: json: cannot unmarshal number into Go struct field Query.queries.kind of type query.Kind\"}\n"},
		{"null", `null`, 400, "{\"error\":\"query batch is empty\"}\n"},
		{"null queries", `{"queries":null}`, 400, "{\"error\":\"query batch is empty\"}\n"},
		{"unknown key", `{"queries":[{"kind":"reachability","src":"` + h0 + `","dst":"` + h1 + `","bogus":{"x":[1,2]}}],"extra":true}`, 200, "0e108194bf1d750263e52deaff81f0e50f9e45052008802d87433b24168bde27"},
		{"case-folded key", `{"queries":[{"Kind":"reachability","SRC":"` + h0 + `","dst":"` + h1 + `"}]}`, 200, "0e108194bf1d750263e52deaff81f0e50f9e45052008802d87433b24168bde27"},
		{"duplicate key", `{"queries":[{"kind":"isolation","kind":"reachability","src":"` + h0 + `","dst":"` + h1 + `"}]}`, 200, "0e108194bf1d750263e52deaff81f0e50f9e45052008802d87433b24168bde27"},
		{"duplicate queries", `{"queries":[` + reach + `],"queries":[` + reach + `,` + reach + `]}`, 200, "cddd9029154b8ebd974333a10f969e541f4e70686b50044b6d287f28ead64aa8"},
		{"quote escape", `{"queries":[{"id":"a\"b\\c\/d\b\f\n\r\t","kind":"reachability","src":"` + h0 + `","dst":"` + h1 + `"}]}`, 200, "47c53e08e94f035cc00c92645c21005a90173b14fbe05a6ed68781b359aee75b"},
		{"unicode escape", "{\"queries\":[{\"id\":\"A\u00e9\u2028\U0001F600\\ud800x\\udc00\\u00e9\",\"kind\":\"reachability\",\"src\":\"" + h0 + "\",\"dst\":\"" + h1 + "\"}]}", 200, "31299912888fe4017180c52a46d1d436683ca405fb5970731c55ce70761c0ebb"},
		{"bad escape", `{"queries":[{"id":"\x","kind":"reachability","src":"a","dst":"b"}]}`, 400, "{\"error\":\"invalid query batch: invalid character 'x' in string escape code\"}\n"},
		{"raw control byte", "{\"queries\":[{\"id\":\"a\tb\",\"kind\":\"reachability\",\"src\":\"a\",\"dst\":\"b\"}]}", 400, "{\"error\":\"invalid query batch: invalid character '\\\\t' in string literal\"}\n"},
		{"invalid UTF-8", "{\"queries\":[{\"id\":\"\xff\xfe\xc3\",\"kind\":\"reachability\",\"src\":\"" + h0 + "\",\"dst\":\"" + h1 + "\"}]}", 200, "fb42130325958f119aeb5c783dde40abc36b250c4414979e91d29dbfbc5a7641"},
		{"bare array", `[` + reach + `]`, 400, "{\"error\":\"invalid query batch: json: cannot unmarshal array into Go value of type service.queryBatch\"}\n"},
		{"trailing bytes", `{"queries":[` + reach + `]} trailing {`, 200, "0e108194bf1d750263e52deaff81f0e50f9e45052008802d87433b24168bde27"},
		{"whitespace", " \t\r\n{ \"queries\" : [ " + reach + " ] }\n", 200, "0e108194bf1d750263e52deaff81f0e50f9e45052008802d87433b24168bde27"},
		{"null field", `{"queries":[{"id":null,"kind":"reachability","src":"` + h0 + `","dst":"` + h1 + `"}]}`, 200, "0e108194bf1d750263e52deaff81f0e50f9e45052008802d87433b24168bde27"},
		{"empty batch", `{"queries":[]}`, 400, "{\"error\":\"query batch is empty\"}\n"},
		{"empty object", `{}`, 400, "{\"error\":\"query batch is empty\"}\n"},
		{"empty body", ``, 400, "{\"error\":\"invalid query batch: EOF\"}\n"},
		{"truncated", `{"queries":[` + reach, 400, "{\"error\":\"invalid query batch: unexpected EOF\"}\n"},
		{"oversized batch", `{"queries":[` + over + `]}`, 400, "{\"error\":\"query batch of 301 exceeds limit 300\"}\n"},
	}
}

// TestQueryCancelBetweenChunks cancels the request context when the
// handler flushes its first chunk of 128 results: those answer, and every
// query of the second chunk reports the cancellation, as the queries
// after a cancelled request always have.
func TestQueryCancelBetweenChunks(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute})
	defer s.Shutdown(context.Background())
	id, configs := doneJob(t, s, "Enterprise", 3)
	ni := mixNetOf(t, configs)
	qs := make([]query.Query, 256)
	for i := range qs {
		qs[i] = query.Query{Kind: query.Reachability, Src: ni.hosts[0], Dst: ni.hosts[1]}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelWriter{discardWriter: discardWriter{h: make(http.Header)}, cancel: cancel}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs/"+id+"/query", bytes.NewReader(marshalBatch(t, qs)))
	s.ServeHTTP(w, req.WithContext(ctx))
	if w.code != http.StatusOK {
		t.Fatalf("status %d: %s", w.code, w.body.Bytes())
	}
	results, stats := splitNDJSON(t, w.body.Bytes())
	if len(results) != len(qs) || stats.Queries != int64(len(qs)) {
		t.Fatalf("%d results, stats %+v, for %d queries", len(results), stats, len(qs))
	}
	for i, r := range results {
		want := ""
		if i >= 128 {
			want = "query aborted: context canceled"
		}
		if r.Index != i || r.Error != want || (want == "" && !r.Holds) {
			t.Fatalf("result %d: %+v, want error %q", i, r, want)
		}
	}
}

// cancelWriter keeps the response body and cancels the request at the
// handler's first flush.
type cancelWriter struct {
	discardWriter
	body   bytes.Buffer
	cancel context.CancelFunc
}

func (w *cancelWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *cancelWriter) Flush()                      { w.cancel() }

// discardWriter is a ResponseWriter that keeps only the status and the
// byte count, so a benchmark times the handler and not a recorder.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *discardWriter) Flush()                      {}

// BenchmarkQueryHTTP times one bench-mix batch of 256 queries through the
// daemon's handler against a done FatTree08 job: request decode, engine
// evaluation and response encode, without a network stack. The batches
// are 2,000 distinct ones, encoded by json.Marshal as the benchmark's
// client sends them, and each was answered once before the timer starts,
// so the engine's caches are as warm as a long-running daemon's.
func BenchmarkQueryHTTP(b *testing.B) {
	s := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute})
	defer s.Shutdown(context.Background())
	id, configs := doneJob(b, s, "FatTree08", 1)
	ni := mixNetOf(b, configs)
	path := "/v1/jobs/" + id + "/query"
	batches := make([][]byte, 2000)
	for i := range batches {
		batches[i] = marshalBatch(b, ni.mix(rand.New(rand.NewSource(int64(i))), 256))
	}
	post := func(body []byte) *discardWriter {
		w := &discardWriter{h: make(http.Header)}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}
	for _, body := range batches {
		if w := post(body); w.code != http.StatusOK {
			b.Fatalf("warm batch: status %d", w.code)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(batches[i%len(batches)])
	}
}
