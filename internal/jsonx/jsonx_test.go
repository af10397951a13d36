package jsonx

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

type specShape struct {
	Name  string `json:"name"`
	Ns    []int  `json:"ns"`
	Quick bool   `json:"quick"`
}

func decode(t *testing.T, doc string) error {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader([]byte(doc)))
	dec.DisallowUnknownFields()
	var s specShape
	return Describe([]byte(doc), dec.Decode(&s))
}

func TestDescribeSyntaxError(t *testing.T) {
	doc := "{\n  \"name\": \"x\",\n  \"ns\": [1, 2,]\n}\n"
	err := decode(t, doc)
	if err == nil {
		t.Fatal("malformed document accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error does not locate line 3: %v", err)
	}
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("original SyntaxError not wrapped: %v", err)
	}
}

func TestDescribeTypeErrorNamesField(t *testing.T) {
	doc := "{\n  \"name\": \"x\",\n  \"ns\": \"eight hundred\"\n}\n"
	err := decode(t, doc)
	if err == nil {
		t.Fatal("wrong-typed field accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `field "ns"`) || !strings.Contains(msg, "line 3") {
		t.Fatalf("error does not name field and line: %v", err)
	}
}

func TestDescribePassesThroughOtherErrors(t *testing.T) {
	plain := errors.New("boom")
	if got := Describe([]byte("{}"), plain); got != plain {
		t.Fatalf("plain error rewrapped: %v", got)
	}
	// Unknown-field errors carry no offset; they already name the field.
	err := decode(t, `{"nmae": "typo"}`)
	if err == nil || !strings.Contains(err.Error(), "nmae") {
		t.Fatalf("unknown-field error lost: %v", err)
	}
	if Describe(nil, nil) != nil {
		t.Fatal("nil error did not pass through")
	}
}

func TestLineColClamps(t *testing.T) {
	data := []byte("ab\ncd")
	cases := []struct {
		offset    int64
		line, col int
	}{
		{0, 1, 1}, {1, 1, 1}, {2, 1, 2}, {4, 2, 1}, {5, 2, 2}, {99, 2, 2},
	}
	for _, c := range cases {
		line, col := lineCol(data, c.offset)
		if line != c.line || col != c.col {
			t.Errorf("lineCol(%d) = %d:%d, want %d:%d", c.offset, line, col, c.line, c.col)
		}
	}
}

func TestDecodeStrict(t *testing.T) {
	var s specShape
	if err := DecodeStrict([]byte("{\"name\": \"x\", \"ns\": [1]}\n\t \r\n"), &s); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	if s.Name != "x" || len(s.Ns) != 1 {
		t.Fatalf("decoded %+v", s)
	}
	cases := []struct{ name, doc, wantErr string }{
		{"second value", "{\"name\": \"x\"}\n{\"ns\": \"x\"}", "line 2, column 1: unexpected content after the JSON value"},
		{"garbage", `{"name": "x"} xyz`, "line 1, column 15: unexpected content"},
		{"stray brackets", `{"quick": true}]]`, "line 1, column 16: unexpected content"},
		{"unknown field", `{"nmae": "typo"}`, `unknown field "nmae"`},
		{"syntax error", "{\n  \"ns\": [1,]\n}", "line 2, column 12"},
		{"empty", "", "EOF"},
	}
	for _, tc := range cases {
		var s specShape
		if err := DecodeStrict([]byte(tc.doc), &s); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}
