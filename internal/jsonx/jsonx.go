// Package jsonx sharpens encoding/json decode errors into messages that
// name their own bug. The stdlib reports a malformed document as
// "invalid character 'x' looking for beginning of value" and a
// wrong-typed field as "cannot unmarshal string into Go struct field
// Sweep.ns of type int" — neither says where in a 200-line sweep spec
// the typo lives. Describe converts the byte offset both error kinds
// carry into a line:column position and, for type errors, keeps the
// field path, so a typo'd grid file fails with "line 7, column 14:
// field \"ns\": cannot unmarshal string into int" instead of a generic
// parse error. Every JSON knob surface in the tree (sweep specs, churn/
// soap/faults specs, churn traces, server job submissions) routes its
// decode errors through here; the file-shaped ones decode through
// DecodeStrict.
package jsonx

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// DecodeStrict decodes the single JSON value in data into v. Unknown
// object fields are rejected, so a typo cannot silently disable a knob,
// and so is anything but whitespace after the value, so a spec with a
// second document or stray bytes pasted after it fails instead of
// running on its first half. Errors carry a line:column position where
// one is known (see Describe).
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return Describe(data, err)
	}
	end := dec.InputOffset()
	if i := bytes.IndexFunc(data[end:], func(r rune) bool {
		return r != ' ' && r != '\t' && r != '\n' && r != '\r'
	}); i >= 0 {
		line, col := lineCol(data, end+int64(i)+1)
		return fmt.Errorf("line %d, column %d: unexpected content after the JSON value", line, col)
	}
	return nil
}

// Describe rewraps a json decode error with the line and column the
// offending byte sits at in data. Errors that carry no offset (unknown
// fields, io errors, validation errors) pass through unchanged, so it
// is always safe to wrap a decoder's error.
func Describe(data []byte, err error) error {
	if err == nil {
		return nil
	}
	switch e := err.(type) {
	case *json.SyntaxError:
		line, col := lineCol(data, e.Offset)
		return fmt.Errorf("line %d, column %d: %w", line, col, e)
	case *json.UnmarshalTypeError:
		line, col := lineCol(data, e.Offset)
		field := e.Field
		if field == "" {
			field = "(document)"
		}
		return fmt.Errorf("line %d, column %d: field %q: cannot unmarshal JSON %s into %s",
			line, col, field, e.Value, e.Type)
	default:
		return err
	}
}

// lineCol converts a 1-based byte offset (as json errors report it)
// into 1-based line and column numbers. Offsets past the end of data
// clamp to the final byte, so truncated documents still locate.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset < 1 {
		offset = 1
	}
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	line, col = 1, 1
	for _, b := range data[:offset-1] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}
