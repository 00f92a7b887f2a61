package tag

import (
	"strconv"
	"unicode/utf8"
)

// Scanner reads one JSON document in a single pass, without reflection,
// for the canonical subset that encoding/json round-trips exactly:
//
//   - one top-level object with nothing after it but whitespace;
//   - keys spelled exactly as the struct tags, and an object- or
//     array-valued key at most once (a repeated scalar key keeps its last
//     value, as in encoding/json);
//   - strings with no backslash, no byte below 0x20 and valid UTF-8;
//   - numbers in JSON's grammar, ints without fraction or exponent and
//     with at most 18 digits, floats that strconv.ParseFloat accepts;
//   - true and false.
//
// Anything else — null, an unknown or case-folded key, a repeated
// object or array, an escape, a type the field does not hold — declines: the scanner
// latches, every later read returns a zero value, and End reports false.
// A declined input is not an error. The caller decodes the same bytes
// with encoding/json, which then accepts or refuses it exactly as it
// would have on its own, so the scanner decides how fast a body is
// read, never what it means.
type Scanner struct {
	data     []byte
	off      int
	declined bool
}

// NewScanner returns a scanner over data. It does not copy data: the
// strings it returns are copies, so data may be reused once reading
// ends.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Decline marks the input as outside the canonical subset: callers
// decline on a key they do not know.
func (s *Scanner) Decline() { s.declined = true }

// Seen declines when bit is set in *seen, and sets it: the guard
// against a repeated object or array, which encoding/json decodes into
// what the first one stored.
func (s *Scanner) Seen(seen *uint32, bit uint32) {
	if *seen&bit != 0 {
		s.declined = true
	}
	*seen |= bit
}

// End reports whether the whole input was read inside the subset: it
// declines on anything but whitespace after the top-level value.
func (s *Scanner) End() bool {
	s.space()
	if s.off != len(s.data) {
		s.declined = true
	}
	return !s.declined
}

// space skips JSON whitespace.
func (s *Scanner) space() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// open consumes the opening byte c of an object or array and reports
// whether it holds any element, consuming the closing byte end if not.
func (s *Scanner) open(c, end byte) bool {
	if s.declined {
		return false
	}
	s.space()
	if s.off >= len(s.data) || s.data[s.off] != c {
		s.declined = true
		return false
	}
	s.off++
	s.space()
	if s.off < len(s.data) && s.data[s.off] == end {
		s.off++
		return false
	}
	return true
}

// more consumes the separator after an element and reports whether
// another one follows, consuming the closing byte end if not.
func (s *Scanner) more(end byte) bool {
	if s.declined {
		return false
	}
	s.space()
	if s.off < len(s.data) {
		switch s.data[s.off] {
		case ',':
			s.off++
			return true
		case end:
			s.off++
			return false
		}
	}
	s.declined = true
	return false
}

// Object opens an object and reports whether it has a first key. Read
// the object as
//
//	for more := s.Object(); more; more = s.More() {
//		switch string(s.Key()) { ... }
//	}
func (s *Scanner) Object() bool { return s.open('{', '}') }

// More reports whether the object holds another key.
func (s *Scanner) More() bool { return s.more('}') }

// Key reads an object key and the colon after it. The returned bytes
// alias the input.
func (s *Scanner) Key() []byte {
	k := s.raw()
	s.space()
	if s.declined || s.off >= len(s.data) || s.data[s.off] != ':' {
		s.declined = true
		return nil
	}
	s.off++
	return k
}

// array opens an array and reports whether it has a first element.
func (s *Scanner) array() bool { return s.open('[', ']') }

// next reports whether the array holds another element.
func (s *Scanner) next() bool { return s.more(']') }

// raw reads a string inside the subset and returns its bytes, aliasing
// the input.
func (s *Scanner) raw() []byte {
	if s.declined {
		return nil
	}
	s.space()
	if s.off >= len(s.data) || s.data[s.off] != '"' {
		s.declined = true
		return nil
	}
	start := s.off + 1
	ascii := true
	for i := start; i < len(s.data); i++ {
		c := s.data[i]
		if c == '"' {
			b := s.data[start:i]
			if ascii || utf8.Valid(b) {
				s.off = i + 1
				return b
			}
			break
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	s.declined = true
	return nil
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	if s.declined {
		return false
	}
	s.space()
	rest := s.data[s.off:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.off += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.off += 5
		return false
	}
	s.declined = true
	return false
}

// maxIntDigits bounds an int literal so that it fits int64 without an
// overflow check; encoding/json decides anything longer.
const maxIntDigits = 18

// Int64 reads an integer: no fraction, no exponent, at most 18 digits.
func (s *Scanner) Int64() int64 {
	n := s.number()
	if !n.ok || !n.integer || n.digits > maxIntDigits {
		s.declined = true
		return 0
	}
	if n.neg {
		return -int64(n.mant)
	}
	return int64(n.mant)
}

// Int reads an integer into an int, declining where int is narrower
// than the literal.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.declined = true
		return 0
	}
	return int(v)
}

// Float reads a number with the bits strconv.ParseFloat gives it,
// declining on a literal ParseFloat refuses (out of float64's range).
func (s *Scanner) Float() float64 {
	n := s.number()
	if !n.ok {
		s.declined = true
		return 0
	}
	f, err := strconv.ParseFloat(string(n.lit), 64)
	if err != nil {
		s.declined = true
		return 0
	}
	return f
}

// number is one literal in JSON's number grammar.
type number struct {
	lit     []byte // the literal, aliasing the input
	neg     bool
	mant    uint64 // the integer part's digits, exact while digits ≤ 19
	digits  int    // the count of the integer part's significant digits
	integer bool   // no fraction and no exponent
	ok      bool   // false outside the grammar
}

// number reads a literal in JSON's number grammar,
//
//	-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
//
// checked here because strconv accepts forms JSON does not (inf, +1,
// 0x1p3, 1_0).
func (s *Scanner) number() (n number) {
	if s.declined {
		return n
	}
	s.space()
	d, i := s.data, s.off
	if i < len(d) && d[i] == '-' {
		n.neg = true
		i++
	}
	if i >= len(d) {
		return n
	}
	switch c := d[i]; {
	case c == '0':
		i++
	case c >= '1' && c <= '9':
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			n.mant = n.mant*10 + uint64(d[i]-'0')
			n.digits++
		}
	default:
		return n
	}
	n.integer = true
	if i < len(d) && d[i] == '.' {
		n.integer = false
		start := i + 1
		if i = digits(d, start); i == start {
			return n
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		n.integer = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		start := i
		if i = digits(d, i); i == start {
			return n
		}
	}
	n.lit, n.ok = d[s.off:i], true
	s.off = i
	return n
}

// digits returns the offset of the first byte at or after i in d that
// is not a decimal digit.
func digits(d []byte, i int) int {
	for i < len(d) && d[i] >= '0' && d[i] <= '9' {
		i++
	}
	return i
}

// FloatRows reads an array of arrays of numbers, as [][]float64.
func (s *Scanner) FloatRows() [][]float64 {
	rows := [][]float64{}
	if !s.array() {
		return rows
	}
	for more := true; more; more = s.next() {
		row := []float64{}
		for m := s.array(); m; m = s.next() {
			row = append(row, s.Float())
		}
		rows = append(rows, row)
	}
	return rows
}
