package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"confmask/internal/query"
)

// The one-pass request decoder and the response appender against
// encoding/json, which they stand in for.

// wireStrings are pieces of strings with every byte class JSON encoders
// and decoders treat specially: quotes, backslashes, control bytes, DEL,
// <>&, U+2028, U+2029, non-ASCII, invalid and truncated UTF-8, and the
// link separator of a what-if failure.
var wireStrings = []string{
	`"`, `\`, "/", "\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
	"<", ">", "&", "\u2028", "\u2029", "\xff", "\xe2\x80", "\xed\xa0\x80", "\u00e9",
	"\U0001F600", "a", "h0-1-2", "<->", " ",
}

// randWireString joins a few random wireStrings pieces and random bytes.
func randWireString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		if rng.Intn(4) == 0 {
			b.WriteByte(byte(rng.Intn(256)))
		} else {
			b.WriteString(wireStrings[rng.Intn(len(wireStrings))])
		}
	}
	return b.String()
}

// FuzzQueryBatchDecode holds the one-pass decoder to json.Decoder, the
// decoder it stands in for: whatever parseBatch accepts, json.Decoder
// must accept too and decode to the same queries, and decodeBatch must
// return what json.Decoder returns for every body, error text included.
// The seeds are the malformed bodies TestQueryResponsePins pins and
// batches as json.Marshal encodes them, with escapes in every field.
func FuzzQueryBatchDecode(f *testing.F) {
	for _, c := range malformedBodies("h0-0-0", "h1-0-1") {
		f.Add([]byte(c.body))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		qs := make([]query.Query, rng.Intn(4))
		for j := range qs {
			qs[j] = query.Query{
				ID: randWireString(rng), Kind: query.Kind(randWireString(rng)),
				Src: randWireString(rng), Dst: randWireString(rng), Via: randWireString(rng),
				FailNode: randWireString(rng), FailLink: "agg0-0<->core" + randWireString(rng),
			}
		}
		body, err := json.Marshal(map[string]any{"queries": qs})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want queryBatch
		werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if qs, ok := parseBatch(data); ok {
			if werr != nil {
				t.Fatalf("parseBatch accepted %q, which json.Decoder rejects: %v", data, werr)
			}
			if !reflect.DeepEqual(qs, want.Queries) {
				t.Fatalf("parseBatch(%q)\n got %#v\nwant %#v", data, qs, want.Queries)
			}
		}
		var buf []byte
		got, gerr := decodeBatch(bytes.NewReader(data), &buf)
		if errText(gerr) != errText(werr) || !reflect.DeepEqual(got, want.Queries) {
			t.Fatalf("decodeBatch(%q) = %#v, %v; json.Decoder gives %#v, %v", data, got, gerr, want.Queries, werr)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestParseBatchTakesClientShape checks that the batches clients send,
// json.Marshal'd, take the one-pass path, escapes included: a decoder
// that declined them would leave every batch to encoding/json.
func TestParseBatchTakesClientShape(t *testing.T) {
	qs := []query.Query{
		{ID: "q1", Kind: query.WhatIf, Src: "h0", Dst: "h1", FailLink: "a<->b"},
		{Kind: query.Waypoint, Src: "h0", Dst: "h1", Via: "r&d"},
		{Kind: query.PathDiff, Src: `h"0`, Dst: "h\\1"},
		{},
	}
	for _, body := range [][]byte{
		mustMarshal(t, map[string]any{"queries": qs}),
		mustMarshal(t, map[string]any{"queries": []query.Query{}}),
	} {
		got, ok := parseBatch(body)
		if !ok {
			t.Fatalf("parseBatch declined %s", body)
		}
		var want queryBatch
		if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(got, want.Queries) {
			t.Fatalf("parseBatch(%s) = %#v, want %#v (%v)", body, got, want.Queries, err)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResultLineMatchesEncoder checks appendResult and appendStats
// against json.Encoder with SetEscapeHTML(false) on random values. Every
// field of query.Result is filled by reflection, so a field added to it
// without a counterpart in appendResult fails here.
func TestResultLineMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	encode := func(v any) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	randInt := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return rng.Int63n(1000) - 10
		}
		return rng.Int63() - rng.Int63()
	}
	for i := 0; i < 20000; i++ {
		var r query.Result
		v := reflect.ValueOf(&r).Elem()
		for k := 0; k < v.NumField(); k++ {
			switch fv := v.Field(k); fv.Kind() {
			case reflect.String:
				if rng.Intn(4) > 0 {
					fv.SetString(randWireString(rng))
				}
			case reflect.Int:
				fv.SetInt(randInt())
			case reflect.Bool:
				fv.SetBool(rng.Intn(2) == 0)
			default:
				t.Fatalf("query.Result field %s has kind %s, which this test cannot fill", v.Type().Field(k).Name, fv.Kind())
			}
		}
		if got, want := appendResult(nil, &r), encode(&r); !bytes.Equal(got, want) {
			t.Fatalf("appendResult(%#v)\n got %q\nwant %q", r, got, want)
		}
		st := query.Stats{Queries: randInt(), WhatIfRetraced: randInt(), WhatIfReused: randInt()}
		if got, want := appendStats(nil, st), encode(map[string]any{"stats": st}); !bytes.Equal(got, want) {
			t.Fatalf("appendStats(%+v)\n got %q\nwant %q", st, got, want)
		}
	}
}
