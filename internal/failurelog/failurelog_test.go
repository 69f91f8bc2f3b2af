package failurelog

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/scan"
)

func sample() *Log {
	return &Log{
		Design:    "aes",
		Compacted: true,
		Fails: []scan.Failure{
			{Pattern: 0, Obs: 3},
			{Pattern: 0, Obs: 7},
			{Pattern: 2, Obs: 3},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	l := sample()
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Design != "aes" || !got.Compacted || len(got.Fails) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range l.Fails {
		if got.Fails[i] != l.Fails[i] {
			t.Fatalf("fail %d: %v vs %v", i, got.Fails[i], l.Fails[i])
		}
	}
}

func TestEmpty(t *testing.T) {
	if !(&Log{}).Empty() {
		t.Fatal("empty log not Empty")
	}
	if sample().Empty() {
		t.Fatal("non-empty log Empty")
	}
}

func TestReadErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"NOTAHEADER x y",
		"FAILLOG aes compacted=maybe",
		"FAILLOG aes compacted=true\nnot numbers",
	} {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestReadUncompactedFlag(t *testing.T) {
	l, err := Read(strings.NewReader("FAILLOG tate compacted=false\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Compacted || l.Design != "tate" || len(l.Fails) != 1 {
		t.Fatalf("%+v", l)
	}
}

func TestRoundTripTruncated(t *testing.T) {
	l := sample()
	l.Truncated = true
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Fatalf("Truncated lost across Write/Read: header %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	if got.Design != l.Design || got.Compacted != l.Compacted || len(got.Fails) != len(l.Fails) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestWriteUntruncatedKeepsOldHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	if header := strings.SplitN(buf.String(), "\n", 2)[0]; header != "FAILLOG aes compacted=true" {
		t.Fatalf("untruncated header changed: %q", header)
	}
}

func TestReadOldAndNewHeaders(t *testing.T) {
	for _, tc := range []struct {
		src       string
		truncated bool
	}{
		{"FAILLOG aes compacted=true\n1 2\n", false},
		{"FAILLOG aes compacted=true truncated=false\n1 2\n", false},
		{"FAILLOG aes compacted=true truncated=true\n1 2\n", true},
	} {
		l, err := Read(strings.NewReader(tc.src))
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if l.Truncated != tc.truncated {
			t.Errorf("%q: Truncated=%v, want %v", tc.src, l.Truncated, tc.truncated)
		}
	}
	if _, err := Read(strings.NewReader("FAILLOG aes compacted=true truncated=maybe\n")); err == nil {
		t.Error("bad truncated flag should be rejected")
	}
	if _, err := Read(strings.NewReader("FAILLOG aes compacted=true truncated=true extra\n")); err == nil {
		t.Error("five-field header should be rejected")
	}
}

func TestSanitized(t *testing.T) {
	l := &Log{Design: "aes", Truncated: true, Fails: []scan.Failure{
		{Pattern: -1, Obs: 0},
		{Pattern: 0, Obs: 3},
		{Pattern: 2, Obs: 9},
		{Pattern: 5, Obs: 0},
		{Pattern: 3, Obs: -2},
	}}
	got, dropped := l.Sanitized(6, 8)
	if dropped != 3 || len(got.Fails) != 2 {
		t.Fatalf("dropped=%d fails=%v", dropped, got.Fails)
	}
	if !got.Truncated || got.Design != "aes" {
		t.Fatalf("metadata lost: %+v", got)
	}
	clean := sample()
	if got, dropped := clean.Sanitized(10, 10); got != clean || dropped != 0 {
		t.Fatalf("clean log should be returned as-is, got %+v dropped=%d", got, dropped)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	l := sample()
	l.Meta = Meta{Wafer: "W07", Lot: "LOT-3141", TesterTime: 1754500000123}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if header != "FAILLOG aes compacted=true wafer=W07 lot=LOT-3141 ts=1754500000123" {
		t.Fatalf("unexpected header: %q", header)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != l.Meta {
		t.Fatalf("Meta round trip: got %+v, want %+v", got.Meta, l.Meta)
	}
}

func TestMetaZeroKeepsOldHeader(t *testing.T) {
	// A log without provenance must stay byte-identical to the pre-Meta
	// format, so existing logs and goldens never change.
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	if header := strings.SplitN(buf.String(), "\n", 2)[0]; header != "FAILLOG aes compacted=true" {
		t.Fatalf("zero-Meta header changed: %q", header)
	}
}

func TestMetaHeaderCompat(t *testing.T) {
	// Meta fields compose with the truncated flag in any emitted order, and
	// old headers still parse to a zero Meta.
	for _, tc := range []struct {
		src  string
		meta Meta
	}{
		{"FAILLOG aes compacted=true\n1 2\n", Meta{}},
		{"FAILLOG aes compacted=true truncated=true wafer=W1\n1 2\n", Meta{Wafer: "W1"}},
		{"FAILLOG aes compacted=true lot=L9 ts=42\n", Meta{Lot: "L9", TesterTime: 42}},
	} {
		l, err := Read(strings.NewReader(tc.src))
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if l.Meta != tc.meta {
			t.Errorf("%q: Meta=%+v, want %+v", tc.src, l.Meta, tc.meta)
		}
	}
	for _, bad := range []string{
		"FAILLOG aes compacted=true ts=soon\n",
		"FAILLOG aes compacted=true wafer=\n",
		"FAILLOG aes compacted=true lot=\n",
		"FAILLOG aes compacted=true color=red\n",
	} {
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Errorf("%q: bad header accepted", bad)
		}
	}
}

func TestSanitizedKeepsMeta(t *testing.T) {
	l := &Log{Design: "aes", Meta: Meta{Wafer: "W2", Lot: "L2", TesterTime: 7},
		Fails: []scan.Failure{{Pattern: -1, Obs: 0}, {Pattern: 1, Obs: 1}}}
	out, dropped := l.Sanitized(4, 4)
	if dropped != 1 || out.Meta != l.Meta {
		t.Fatalf("Sanitized dropped Meta: %+v (dropped=%d)", out.Meta, dropped)
	}
}

func TestByObservation(t *testing.T) {
	l := &Log{Fails: []scan.Failure{
		{Pattern: 70, Obs: 3},
		{Pattern: 0, Obs: 7},
		{Pattern: 2, Obs: 3},
		{Pattern: 70, Obs: 3}, // duplicate: second layer
		{Pattern: 127, Obs: 7},
		{Pattern: 70, Obs: 3}, // third copy: third layer
	}}
	got := l.ByObservation(2)
	want := []ObsFails{
		{Obs: 3, Mask: []uint64{1 << 2, 1 << 6, 0, 1 << 6, 0, 1 << 6}},
		{Obs: 7, Mask: []uint64{1, 1 << 63}},
	}
	if len(got) != len(want) {
		t.Fatalf("ByObservation = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Obs != want[i].Obs || !slices.Equal(got[i].Mask, want[i].Mask) {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if !slices.Equal(l.Fails[:2], []scan.Failure{{Pattern: 70, Obs: 3}, {Pattern: 0, Obs: 7}}) {
		t.Fatal("ByObservation reordered the log")
	}
	if got := (&Log{}).ByObservation(2); len(got) != 0 {
		t.Fatalf("empty log: %+v", got)
	}
}
