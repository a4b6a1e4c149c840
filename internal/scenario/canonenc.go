package scenario

import (
	"cmp"
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

// canonWriter appends canonical bytes to b; err is the first value JSON cannot carry.
type canonWriter struct {
	b   []byte
	err error
}

func (w *canonWriter) value(p *plan, v reflect.Value) {
	switch p.kind {
	case reflect.Bool:
		w.b = strconv.AppendBool(w.b, v.Bool())
	case reflect.Int64:
		w.b = strconv.AppendInt(w.b, v.Int(), 10)
	case reflect.Float64:
		w.float(v.Float())
	case reflect.String:
		w.b = appendString(w.b, v.String())
	case reflect.Pointer, reflect.Slice:
		switch {
		case v.IsNil():
			w.b = append(w.b, "null"...)
		case p.kind == reflect.Pointer:
			w.value(&p.sub[0], v.Elem())
		default:
			w.b = append(w.b, '[')
			for i, n := 0, v.Len(); i < n; i++ {
				if i > 0 {
					w.b = append(w.b, ',')
				}
				w.value(&p.sub[0], v.Index(i))
			}
			w.b = append(w.b, ']')
		}
	case reflect.Struct:
		w.b = append(w.b, '{')
		open := len(w.b)
		for i := range p.sub {
			f := &p.sub[i]
			fv := v.Field(f.index)
			// encoding/json's empty: false, 0, nil, a string or slice of no length.
			if f.omitEmpty && (fv.IsZero() || f.kind == reflect.Slice && fv.Len() == 0) {
				continue
			}
			if len(w.b) > open {
				w.b = append(w.b, ',')
			}
			w.b = append(w.b, f.key...)
			w.value(f, fv)
		}
		w.b = append(w.b, '}')
	}
}

// float writes the shortest digits that read back as f; outside [1e-6, 1e21)
// encoding/json is asked, for its exponent form and its refusal of NaN and ±Inf.
func (w *canonWriter) float(f float64) {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		w.b = strconv.AppendFloat(w.b, f, 'f', -1, 64)
		return
	}
	q, err := json.Marshal(f)
	w.b, w.err = append(w.b, q...), cmp.Or(w.err, err)
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
