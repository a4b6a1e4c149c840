package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// plan is how one type of the Spec vocabulary is written in canonical form,
// compiled from the struct tags at first use (a program that never encodes a
// Spec holds none), so that a new field or struct type needs no edit here.
// What there is no rule for (a map, an unsigned or 32-bit number, an untagged
// or embedded field, omitempty on a struct) panics: encoding/json is the reference.
type plan struct {
	kind      reflect.Kind // signed integers all read Int64
	sub       []plan       // a Struct's fields in byte order of their names (encoding/json's order for map keys); a Pointer's or Slice's element
	key       string       // as a field of a struct: the quoted name and its colon,
	index     int          // its position,
	omitEmpty bool         // and its tag's option
}

var specPlan = sync.OnceValue(func() *plan { return compilePlan(reflect.TypeOf(Spec{})) })

func compilePlan(t reflect.Type) *plan {
	p := &plan{kind: t.Kind()}
	switch p.kind {
	case reflect.Bool, reflect.Float64, reflect.String:
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.kind = reflect.Int64
	case reflect.Pointer, reflect.Slice:
		p.sub = []plan{*compilePlan(t.Elem())}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name, opt, _ := strings.Cut(f.Tag.Get("json"), ",")
			fp := *compilePlan(f.Type)
			fp.key, fp.index, fp.omitEmpty = name, i, opt == "omitempty"
			if name == "" || name == "-" || f.Anonymous || !f.IsExported() || opt != "" && (!fp.omitEmpty || fp.kind == reflect.Struct) {
				panic(fmt.Sprintf("scenario: canonical encoder has no rule for field %s.%s `%s`", t, f.Name, f.Tag))
			}
			p.sub = append(p.sub, fp)
		}
		sort.Slice(p.sub, func(i, j int) bool { return p.sub[i].key < p.sub[j].key })
		for i := range p.sub {
			p.sub[i].key = string(appendString(nil, p.sub[i].key)) + ":"
		}
	default:
		panic(fmt.Sprintf("scenario: canonical encoder has no rule for %s", t))
	}
	return p
}

// appendValue appends v's canonical bytes to b; err is the first value JSON
// cannot carry. b goes in and comes out by value, never through a pointer,
// so a caller's stack buffer stays on the stack.
func appendValue(b []byte, p *plan, v reflect.Value) (_ []byte, err error) {
	switch p.kind {
	case reflect.Bool:
		b = strconv.AppendBool(b, v.Bool())
	case reflect.Int64:
		b = strconv.AppendInt(b, v.Int(), 10)
	case reflect.Float64:
		b, err = appendFloat(b, v.Float())
	case reflect.String:
		b = appendString(b, v.String())
	case reflect.Pointer, reflect.Slice:
		switch {
		case v.IsNil():
			b = append(b, "null"...)
		case p.kind == reflect.Pointer:
			b, err = appendValue(b, &p.sub[0], v.Elem())
		default:
			b = append(b, '[')
			for i, n := 0, v.Len(); i < n && err == nil; i++ {
				if i > 0 {
					b = append(b, ',')
				}
				b, err = appendValue(b, &p.sub[0], v.Index(i))
			}
			b = append(b, ']')
		}
	case reflect.Struct:
		b = append(b, '{')
		open := len(b)
		for i := 0; i < len(p.sub) && err == nil; i++ {
			f := &p.sub[i]
			fv := v.Field(f.index)
			// encoding/json's empty: false, 0, nil, a string or slice of no length.
			if f.omitEmpty && (fv.IsZero() || f.kind == reflect.Slice && fv.Len() == 0) {
				continue
			}
			if len(b) > open {
				b = append(b, ',')
			}
			b = append(b, f.key...)
			b, err = appendValue(b, f, fv)
		}
		b = append(b, '}')
	}
	return b, err
}

// appendFloat writes the shortest digits that read back as f; outside [1e-6, 1e21)
// encoding/json is asked, for its exponent form and its refusal of NaN and ±Inf.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	q, err := json.Marshal(f)
	return append(b, q...), err
}

// appendString writes s quoted. Printable ASCII that neither JSON nor its HTML
// escaping touches is copied; any other string is encoding/json's to escape, each byte
// that is not valid UTF-8 first made a literal U+FFFD (the rule in canonical.go).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			q, _ := json.Marshal(string([]rune(s))) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
