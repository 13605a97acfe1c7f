package stream

import (
	"encoding/base64"
	"encoding/json"

	"evmatching/internal/feature"
	"evmatching/internal/geo"
	"evmatching/internal/ids"
	"evmatching/internal/scenario"
)

// DecodeObservation decodes one JSONL observation line. Its result is
// exactly that of
//
//	var o Observation
//	err := json.Unmarshal(line, &o)
//
// values, nil-versus-empty slices and error texts included. A line in the
// layout encoding/json itself writes for an Observation — every line
// WriteEventsLog and a json.Encoder produce — is read in one forward scan;
// every other line (escapes, reordered or differently cased keys, duplicate
// keys, null, whitespace, 19-digit numbers, bad base64) goes to
// json.Unmarshal unchanged. The decoded value never aliases line. No
// validation beyond the decode runs: callers still call Validate.
func DecodeObservation(line []byte) (Observation, error) {
	if o, ok := decodeCanonical(line); ok {
		return o, nil
	}
	var o Observation
	err := json.Unmarshal(line, &o)
	return o, err
}

// decodeCanonical reads line if, and only if, it has the layout
//
//	{"ts":I,"kind":"E"|"V","cell":I[,"eid":S][,"attr":I][,"vid":S],"person":I[,"patch":{"w":I,"h":I,"pix":S}]}
//
// with nothing after the final brace, where I is -?(0|[1-9][0-9]{0,17})
// (attr unsigned and at most 255) and S is printable ASCII without '"' or
// '\'. On such a line json.Unmarshal succeeds with the value returned here;
// ok is false for every other line, a pix that is not valid base64
// included.
func decodeCanonical(line []byte) (o Observation, ok bool) {
	s := canonScanner{b: line}
	if !s.lit(`{"ts":`) {
		return o, false
	}
	if o.TS, ok = s.int(); !ok {
		return o, false
	}
	switch {
	case s.lit(`,"kind":"E"`):
		o.Kind = KindE
	case s.lit(`,"kind":"V"`):
		o.Kind = KindV
	default:
		return o, false
	}
	if !s.lit(`,"cell":`) {
		return o, false
	}
	cell, ok := s.intNative()
	if !ok {
		return o, false
	}
	o.Cell = geo.CellID(cell)
	if s.lit(`,"eid":`) {
		eid, ok := s.str()
		if !ok {
			return o, false
		}
		o.EID = ids.EID(eid)
	}
	if s.lit(`,"attr":`) {
		// Attr is a uint8: encoding/json refuses a sign, even on zero.
		if s.i < len(s.b) && s.b[s.i] == '-' {
			return o, false
		}
		attr, ok := s.int()
		if !ok || attr > 255 {
			return o, false
		}
		o.Attr = scenario.Attr(attr)
	}
	if s.lit(`,"vid":`) {
		vid, ok := s.str()
		if !ok {
			return o, false
		}
		o.VID = ids.VID(vid)
	}
	if !s.lit(`,"person":`) {
		return o, false
	}
	if o.Person, ok = s.intNative(); !ok {
		return o, false
	}
	var patch *feature.Patch
	var pix []byte
	if s.lit(`,"patch":{"w":`) {
		patch = new(feature.Patch)
		if patch.W, ok = s.intNative(); !ok || !s.lit(`,"h":`) {
			return o, false
		}
		if patch.H, ok = s.intNative(); !ok || !s.lit(`,"pix":`) {
			return o, false
		}
		if pix, ok = s.raw(); !ok || !s.lit(`}`) {
			return o, false
		}
	}
	if !s.lit(`}`) || s.i != len(s.b) {
		return o, false
	}
	if patch != nil {
		// encoding/json's own []byte decode, so the length and
		// nil-versus-empty agree.
		b := make([]byte, base64.StdEncoding.DecodedLen(len(pix)))
		n, err := base64.StdEncoding.Decode(b, pix)
		if err != nil {
			return o, false
		}
		patch.Pix = b[:n]
		o.Patch = patch
	}
	return o, true
}

// canonScanner is decodeCanonical's forward cursor over one line.
type canonScanner struct {
	b []byte
	i int
}

// lit consumes lit if the input continues with it.
func (s *canonScanner) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// maxCanonDigits bounds a canonical integer's digits: 18 never overflow an
// int64, so no 19-digit literal needs the range check encoding/json makes.
const maxCanonDigits = 18

// int consumes -?(0|[1-9][0-9]{0,17}).
func (s *canonScanner) int() (int64, bool) {
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var n int64
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		if s.i-start == maxCanonDigits {
			return 0, false
		}
		n = n*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	if digits := s.i - start; digits == 0 || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// intNative is int for a field of type int, refusing what the platform's
// int cannot hold as encoding/json does.
func (s *canonScanner) intNative() (int, bool) {
	n, ok := s.int()
	if !ok || int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// raw consumes a quoted S and returns its bytes, which alias the input.
func (s *canonScanner) raw() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	rest := s.b[s.i:]
	for j, c := range rest {
		switch strClass[c] {
		case strByte:
			continue
		case strQuote:
			s.i += j + 1
			return rest[:j], true
		}
		return nil, false
	}
	return nil, false
}

// Byte classes inside a canonical string: what may stand in S, the closing
// quote, and everything else (the zero value).
const (
	strByte = 1 + iota
	strQuote
)

// strClass classes every byte for raw's one table load per byte.
var strClass = func() (t [256]uint8) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = strByte
	}
	t['"'] = strQuote
	t['\\'] = 0
	return t
}()

// str consumes a quoted S and returns a copy of it.
func (s *canonScanner) str() (string, bool) {
	b, ok := s.raw()
	return string(b), ok
}
