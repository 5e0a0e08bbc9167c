package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"atm/internal/decfloat"
)

// The /v1/submit wire codec: the JSON and binary task decoders and the
// JSON reply encoder. All three are written against this one route's
// schema — no reflection, no intermediate request structs — and work in
// caller-supplied buffers, so a pooled request decodes and encodes
// without allocating. Floats cross between text and binary in
// internal/decfloat, in both directions. docs/service.md states the
// grammar; the differential tests in codec_test.go hold the JSON decoder
// to encoding/json's verdicts and the encoder to its bytes.

// readBody reads r to EOF into buf[:0]. A positive hint (the request's
// Content-Length) sizes the buffer up front, one byte over so the Read
// that reports EOF needs no growth; without one it grows like
// io.ReadAll.
func readBody(r io.Reader, buf []byte, hint int64) ([]byte, error) {
	buf = buf[:0]
	if hint > 0 && hint <= maxBodyBytes && int64(cap(buf)) <= hint {
		buf = make([]byte, 0, hint+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ---- JSON request decoder ----

// maxJSONDepth is encoding/json's nesting limit; deeper bodies are
// rejected the same way.
const maxJSONDepth = 10000

// jsonDecoder walks a submit body once. Errors are *BadTaskError.
type jsonDecoder struct {
	b     []byte
	i     int
	kinds map[string]Kind

	tasks []Task
	slab  []float64
	// unresolved is the first task that parsed but names no work (no
	// input and no key, or a key for a kind that is not served). It is
	// reported only once the whole body has parsed, and only if no later
	// "tasks" member replaced the list it was found in.
	unresolved error
}

// decodeJSONTasks parses a JSON submit body, appending to tasks[:0] and
// carving every input vector from slab[:0] (grown if the body needs
// more). Kinds resolve against the catalog, so a served kind's name is
// the catalog's own string; defTenant applies to tasks without a tenant
// of their own. The returned tasks alias the returned slab.
func decodeJSONTasks(kinds map[string]Kind, body []byte, defTenant string, tasks []Task, slab []float64) ([]Task, []float64, error) {
	d := jsonDecoder{b: body, kinds: kinds, tasks: tasks[:0], slab: slab[:0]}
	if d.slab == nil {
		// A float at the precision clients send costs some twenty body
		// bytes, never fewer than two; an eighth of a float per byte
		// leaves room for short ones. Terser bodies, and keyed tasks,
		// whose vectors are generated here, grow the slab instead.
		d.slab = make([]float64, 0, len(body)/8)
	}
	err := d.top(defTenant)
	return d.tasks, d.slab, err
}

func badJSON(msg string) error { return &BadTaskError{msg: "malformed JSON body: " + msg} }

// syntax reports the byte at d.i (or the end of input) as a syntax
// error, worded as encoding/json words it.
func (d *jsonDecoder) syntax(context string) error {
	if d.i >= len(d.b) {
		return badJSON("unexpected end of JSON input")
	}
	// A quoted string with the quotation marks swapped, but for the two
	// characters that would then need different escaping.
	var q string
	switch c := d.b[d.i]; c {
	case '\'':
		q = `'\''`
	case '"':
		q = `'"'`
	default:
		q = strconv.Quote(string(rune(c)))
		q = "'" + q[1:len(q)-1] + "'"
	}
	return badJSON("invalid character " + q + " " + context)
}

func (d *jsonDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end of
// input (a NUL in the body is reported by whoever does not expect it).
func (d *jsonDecoder) peek() byte {
	d.ws()
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// top parses the top-level value and requires the end of input after it.
func (d *jsonDecoder) top(defTenant string) error {
	switch d.peek() {
	case '{':
		if err := d.object(1, func(key []byte, plain bool) error {
			if !keyIs(key, plain, "tasks") {
				return d.skip(1)
			}
			return d.taskList(defTenant)
		}); err != nil {
			return err
		}
	case 'n':
		// encoding/json leaves the target alone on null: no tasks.
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		return d.wrongType(0, "the body must be an object")
	}
	if d.peek(); d.i < len(d.b) {
		return d.syntax("after top-level value")
	}
	return d.unresolved
}

// object parses the object at d.i, which sits at depth (the number of
// containers around its members), calling member with each key — its
// raw bytes between the quotes, and whether they are free of escapes and
// non-ASCII — positioned at the member's value.
func (d *jsonDecoder) object(depth int, member func(key []byte, plain bool) error) error {
	if depth > maxJSONDepth {
		return d.syntax("exceeded max depth")
	}
	d.i++ // '{'
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, plain, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.i++
		d.ws()
		if err := member(key, plain); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// array parses the array at d.i, calling elem positioned at each element.
func (d *jsonDecoder) array(depth int, elem func() error) error {
	if depth > maxJSONDepth {
		return d.syntax("exceeded max depth")
	}
	d.i++ // '['
	if d.peek() == ']' {
		d.i++
		return nil
	}
	for {
		d.ws()
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// skip validates and steps over the value at d.i, whose enclosing
// containers number depth.
func (d *jsonDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth+1, func([]byte, bool) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(depth+1, func() error { return d.skip(depth + 1) })
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntax("looking for beginning of value")
}

// wrongType steps over a well-formed value of a type its place does not
// take (enclosed by depth containers) and reports it; a malformed one is
// its own error.
func (d *jsonDecoder) wrongType(depth int, format string, args ...any) error {
	if err := d.skip(depth); err != nil {
		return err
	}
	return badJSON(fmt.Sprintf(format, args...))
}

// literal consumes one of true, false, null.
func (d *jsonDecoder) literal(word string) error {
	for j := 1; j < len(word); j++ {
		d.i++
		if d.i >= len(d.b) || d.b[d.i] != word[j] {
			return d.syntax("in literal " + word + " (expecting '" + word[j:j+1] + "')")
		}
	}
	d.i++
	return nil
}

// null consumes a null if one is next.
func (d *jsonDecoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// str validates the string at d.i and returns the raw bytes between its
// quotes; plain reports that they hold no escape and no non-ASCII byte,
// so they are the string's value as they stand.
func (d *jsonDecoder) str() (raw []byte, plain bool, err error) {
	d.i++ // '"'
	start := d.i
	plain = true
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], plain, nil
		case c < ' ':
			return nil, false, d.syntax("in string literal")
		case c >= utf8.RuneSelf:
			plain = false
		case c == '\\':
			plain = false
			d.i++
			if d.i >= len(d.b) {
				return nil, false, d.syntax("")
			}
			switch d.b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					d.i++
					if d.i >= len(d.b) || !isHex(d.b[d.i]) {
						return nil, false, d.syntax(`in \u hexadecimal character escape`)
					}
				}
			default:
				return nil, false, d.syntax("in string escape code")
			}
		}
		d.i++
	}
	return nil, false, d.syntax("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number validates the JSON number at d.i and returns its text, as a
// string viewing the body: no copy is made, and the body is not
// written while a decode runs.
func (d *jsonDecoder) number() (string, error) {
	b, i := d.b, d.i
	// digits steps over a run of digits and reports whether there was one.
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	fail := func(context string) (string, error) {
		d.i = i
		return "", d.syntax(context)
	}
	if b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return fail("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return fail("after decimal point in numeric literal")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return fail("in exponent of numeric literal")
		}
	}
	start := d.i
	d.i = i
	return unsafe.String(&b[start], i-start), nil
}

// unquote appends the value of a validated raw string to dst, the way
// encoding/json decodes it: escapes resolved, surrogate pairs joined,
// malformed UTF-8 and lone surrogates replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch raw[i] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 4
				if utf8.ValidRune(r) {
					dst = utf8.AppendRune(dst, r)
					break
				}
				// A surrogate: the high half of a pair followed by an
				// escaped low half makes one rune, anything else U+FFFD.
				if r < 0xDC00 && i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
					if lo := hex4(raw[i+3:]); 0xDC00 <= lo && lo < 0xE000 {
						dst = utf8.AppendRune(dst, (r-0xD800)<<10|(lo-0xDC00)+0x10000)
						i += 6
						break
					}
				}
				dst = utf8.AppendRune(dst, utf8.RuneError)
			default: // '"', '\\', '/'
				dst = append(dst, raw[i])
			}
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// keyIs reports whether an object key selects the member name, by
// encoding/json's rule: the unquoted key equals name exactly or under
// Unicode simple case folding. name is lower-case ASCII; the only
// non-ASCII runes that fold onto ASCII letters are U+017F (long s) and
// U+212A (Kelvin sign).
func keyIs(raw []byte, plain bool, name string) bool {
	if plain {
		if string(raw) == name {
			return true
		}
	} else if len(raw) <= 6*len(name) { // every rune of a match is at most one \uXXXX
		var buf [64]byte
		raw = unquote(buf[:0], raw)
	} else {
		return false
	}
	j := 0
	for i := 0; i < len(raw); j++ {
		r, n := rune(raw[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(raw[i:])
		}
		switch {
		case 'A' <= r && r <= 'Z':
			r += 'a' - 'A'
		case r == '\u017f': // long s
			r = 's'
		case r == '\u212a': // Kelvin sign
			r = 'k'
		}
		if j >= len(name) || r != rune(name[j]) {
			return false
		}
		i += n
	}
	return j == len(name)
}

// text returns the value of a validated string as a Go string.
func text(raw []byte, plain bool) string {
	if plain {
		return string(raw)
	}
	return string(unquote(make([]byte, 0, len(raw)), raw))
}

// taskList parses the value of a "tasks" member. A repeated member
// replaces the earlier one whole.
func (d *jsonDecoder) taskList(defTenant string) error {
	d.tasks, d.slab, d.unresolved = d.tasks[:0], d.slab[:0], nil
	if isNull, err := d.null(); isNull {
		return err
	}
	if d.peek() != '[' {
		return d.wrongType(1, "tasks must be an array")
	}
	return d.array(2, func() error { return d.task(defTenant) })
}

// task parses one element of the tasks array and appends the Task it
// describes.
func (d *jsonDecoder) task(defTenant string) error {
	idx := len(d.tasks)
	if d.peek() != '{' {
		isNull, err := d.null()
		if err != nil {
			return err
		}
		if !isNull {
			return d.wrongType(2, "task %d must be an object", idx)
		}
		// A null element is a task with no members.
		d.unresolve(idx, "needs either input or key")
		return nil
	}
	var (
		kind             string // the catalog's string when the kind is served
		k                Kind
		served           bool
		tenant           string
		hasInput, hasKey bool
		inOff            int
		key, seed        uint64
	)
	err := d.object(3, func(name []byte, plain bool) error {
		// A null leaves a string or number member as it was and unsets
		// input and key, which is what encoding/json makes of it.
		switch {
		case keyIs(name, plain, "kind"):
			raw, rawPlain, isNull, err := d.strMember(idx, "kind")
			if err != nil || isNull {
				return err
			}
			if rawPlain {
				k, served = d.kinds[string(raw)] // no allocation: a map probe by converted bytes
			} else {
				kind = text(raw, false)
				k, served = d.kinds[kind]
			}
			if served {
				kind = k.Name
			} else if rawPlain {
				kind = string(raw)
			}
		case keyIs(name, plain, "tenant"):
			raw, rawPlain, isNull, err := d.strMember(idx, "tenant")
			if err != nil || isNull {
				return err
			}
			tenant = text(raw, rawPlain)
		case keyIs(name, plain, "input"):
			inOff = len(d.slab)
			var err error
			hasInput, err = d.inputMember(idx)
			return err
		case keyIs(name, plain, "key"):
			var err error
			key, hasKey, err = d.uintMember(idx, "key")
			return err
		case keyIs(name, plain, "seed"):
			v, ok, err := d.uintMember(idx, "seed")
			if ok {
				seed = v
			}
			return err
		default:
			return d.skip(3)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if tenant == "" {
		tenant = defTenant
	}
	if !hasInput {
		if !hasKey {
			d.unresolve(idx, "needs either input or key")
			return nil
		}
		if !served {
			d.unresolve(idx, fmt.Sprintf("unknown kind %q", kind))
			return nil
		}
		inOff = len(d.slab)
		d.slab = slices.Grow(d.slab, k.In)[:inOff+k.In]
		fillInput(d.slab[inOff:], k, key, seed)
	}
	end := len(d.slab)
	d.tasks = append(d.tasks, Task{Kind: kind, Tenant: tenant, Input: d.slab[inOff:end:end]})
	return nil
}

// unresolve records task idx as the body's first unresolved task. The
// tasks after it keep being parsed (their syntax still counts), but
// they are numbered from a list that is already rejected.
func (d *jsonDecoder) unresolve(idx int, why string) {
	if d.unresolved == nil {
		d.unresolved = &BadTaskError{msg: fmt.Sprintf("task %d: %s", idx, why)}
	}
}

// strMember parses a member that must be a string or null.
func (d *jsonDecoder) strMember(idx int, name string) (raw []byte, plain, isNull bool, err error) {
	if d.peek() == '"' {
		raw, plain, err = d.str()
		return raw, plain, false, err
	}
	if isNull, err = d.null(); isNull || err != nil {
		return nil, false, isNull, err
	}
	return nil, false, false, d.wrongType(3, "task %d: %s must be a string", idx, name)
}

// uintMember parses a member that must be null or a number
// strconv.ParseUint reads as a uint64: no sign, fraction or exponent.
func (d *jsonDecoder) uintMember(idx int, name string) (v uint64, ok bool, err error) {
	if c := d.peek(); c == '-' || '0' <= c && c <= '9' {
		num, err := d.number()
		if err != nil {
			return 0, false, err
		}
		if v, err = strconv.ParseUint(num, 10, 64); err != nil {
			return 0, false, badJSON(fmt.Sprintf("task %d: %s must be an unsigned 64-bit integer, not %s", idx, name, num))
		}
		return v, true, nil
	}
	if isNull, err := d.null(); isNull || err != nil {
		return 0, false, err
	}
	return 0, false, d.wrongType(3, "task %d: %s must be a number", idx, name)
}

// inputMember parses an input member, appending its floats to the slab,
// and reports whether the task now has an input (null unsets it).
func (d *jsonDecoder) inputMember(idx int) (bool, error) {
	if isNull, err := d.null(); isNull || err != nil {
		return false, err
	}
	if d.peek() != '[' {
		return false, d.wrongType(3, "task %d: input must be an array of numbers", idx)
	}
	err := d.array(4, func() error {
		if c := d.peek(); c == '-' || '0' <= c && c <= '9' {
			// One pass checks the grammar and reads the value.
			f, n, ok := decfloat.Parse(d.b[d.i:])
			if !ok {
				return d.badFloat(idx)
			}
			d.i += n
			d.slab = append(d.slab, f)
			return nil
		}
		isNull, err := d.null()
		if err != nil {
			return err
		}
		if !isNull {
			return d.wrongType(4, "task %d: input must be an array of numbers", idx)
		}
		// A null element is the zero it would leave in a fresh slice.
		d.slab = append(d.slab, 0)
		return nil
	})
	return err == nil, err
}

// badFloat reports the input value at d.i, which decfloat.Parse turned
// down: where its grammar breaks, or else that no float64 holds it.
func (d *jsonDecoder) badFloat(idx int) error {
	num, err := d.number()
	if err != nil {
		return err
	}
	return badJSON(fmt.Sprintf("task %d: input value %s is out of range", idx, num))
}

// ---- JSON reply encoder ----

// errNonFinite rejects an output vector JSON cannot carry.
var errNonFinite = errors.New("service: task output is not finite; JSON cannot encode it")

// appendSubmitReply appends the /v1/submit reply, byte for byte what
// encoding/json's Encoder writes for
//
//	{"results":[{"output":[...]},...],"batch":{"tasks":..,"executed":..,"memo_tht":..,"memo_ikt":..}}
//
// trailing newline included. A NaN or infinite output is an error.
func appendSubmitReply(dst []byte, outs [][]float64, g GroupStats) ([]byte, error) {
	dst = append(dst, `{"results":[`...)
	for i, out := range outs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"output":`...)
		var err error
		if dst, err = appendFloats(dst, out); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"batch":{"tasks":`...)
	dst = strconv.AppendInt(dst, g.Tasks, 10)
	dst = append(dst, `,"executed":`...)
	dst = strconv.AppendInt(dst, g.Executed, 10)
	dst = append(dst, `,"memo_tht":`...)
	dst = strconv.AppendInt(dst, g.MemoTHT, 10)
	dst = append(dst, `,"memo_ikt":`...)
	dst = strconv.AppendInt(dst, g.MemoIKT, 10)
	return append(dst, "}}\n"...), nil
}

// appendLookupReply appends the /v1/lookup reply, encoding/json's bytes
// for {"hit":..,"output":[...]} with the output left out when empty.
func appendLookupReply(dst []byte, hit bool, out []float64) ([]byte, error) {
	dst = append(dst, `{"hit":`...)
	dst = strconv.AppendBool(dst, hit)
	if len(out) > 0 {
		dst = append(dst, `,"output":`...)
		var err error
		if dst, err = appendFloats(dst, out); err != nil {
			return dst, err
		}
	}
	return append(dst, "}\n"...), nil
}

// appendFloats appends a JSON array of floats as encoding/json writes
// one: each the shortest text that reads back as the same float64, in
// positional form from 1e-6 up to 1e21 and d.ddde±x outside. A NaN or
// an infinity is an error.
func appendFloats(dst []byte, fs []float64) ([]byte, error) {
	dst = append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, errNonFinite
		}
		dst = decfloat.AppendShortest(dst, f)
	}
	return append(dst, ']'), nil
}

// ---- binary request codec ----

// binaryContentType selects the compact submit encoding: little-endian
//
//	u32 ntasks, then per task: u8 kind-name length, kind name,
//	u32 nfloats, nfloats × f64.
const binaryContentType = "application/x-atm-tasks"

// minBinaryTask is the smallest task record: an empty kind name and no
// floats.
const minBinaryTask = 1 + 4

// decodeBinaryTasks parses a binary submit body the way decodeJSONTasks
// parses a JSON one: into tasks[:0] and slab[:0], kinds resolved against
// the catalog, every task in tenant's namespace (the encoding carries
// no tenant of its own). Every size the body declares is checked
// against the bytes actually present before anything is sized by it.
func decodeBinaryTasks(kinds map[string]Kind, body []byte, tenant string, tasks []Task, slab []float64) ([]Task, []float64, error) {
	bad := func(msg string) ([]Task, []float64, error) {
		return tasks[:0], slab[:0], &BadTaskError{msg: "binary body: " + msg}
	}
	if len(body) < 4 {
		return bad("truncated count")
	}
	n := binary.LittleEndian.Uint32(body)
	if n == 0 || n > 1<<20 {
		return bad(fmt.Sprintf("implausible task count %d", n))
	}
	// A count the body cannot hold fails below, at the first record that
	// is missing; until then it must not size anything.
	tasks, slab = tasks[:0], slab[:0]
	if fits := min(int(n), (len(body)-4)/minBinaryTask); cap(tasks) < fits {
		tasks = make([]Task, 0, fits)
	}
	if maxFloats := (len(body) - 4) / 8; cap(slab) < maxFloats {
		slab = make([]float64, 0, maxFloats)
	}
	off := 4
	for i := uint32(0); i < n; i++ {
		if off >= len(body) {
			return bad("truncated kind length")
		}
		kl := int(body[off])
		off++
		if kl > len(body)-off {
			return bad("truncated kind name")
		}
		name := body[off : off+kl]
		off += kl
		if len(body)-off < 4 {
			return bad("truncated float count")
		}
		nf := binary.LittleEndian.Uint32(body[off:])
		off += 4
		if uint64(nf) > uint64(len(body)-off)/8 {
			return bad("truncated input vector")
		}
		start := len(slab)
		for end := off + 8*int(nf); off < end; off += 8 {
			slab = append(slab, math.Float64frombits(binary.LittleEndian.Uint64(body[off:])))
		}
		k, served := kinds[string(name)]
		kind := k.Name
		if !served {
			kind = string(name)
		}
		tasks = append(tasks, Task{Kind: kind, Tenant: tenant, Input: slab[start:len(slab):len(slab)]})
	}
	if off != len(body) {
		return bad(fmt.Sprintf("%d trailing bytes", len(body)-off))
	}
	return tasks, slab, nil
}

// EncodeBinaryTasks renders tasks in the binary submit encoding (the
// client half, used by the benchmark's serve_hot_bin workload and
// tests).
func EncodeBinaryTasks(tasks []Task) ([]byte, error) {
	buf := make([]byte, 4, 4+len(tasks)*64)
	binary.LittleEndian.PutUint32(buf, uint32(len(tasks)))
	for _, t := range tasks {
		if len(t.Kind) > 255 {
			return nil, fmt.Errorf("kind name too long: %q", t.Kind)
		}
		buf = append(buf, byte(len(t.Kind)))
		buf = append(buf, t.Kind...)
		var nf [4]byte
		binary.LittleEndian.PutUint32(nf[:], uint32(len(t.Input)))
		buf = append(buf, nf[:]...)
		for _, v := range t.Input {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			buf = append(buf, b[:]...)
		}
	}
	return buf, nil
}
