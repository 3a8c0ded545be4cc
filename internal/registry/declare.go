package registry

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"github.com/dslab-epfl/warr/internal/webapp"
)

// Declarer is the optional declared-state capability of an AppState:
// the one declaration of its mutable server state that the registry
// derives fork, image and reset from, so those cannot drift apart.
// Declare returns the lock guarding the state, a pointer to a plain
// JSON-tagged struct holding every mutable field, and the server whose
// issued sessions belong to the state. Anything else the state keeps
// must be immutable or rebuilt identically by NewState (routes, a
// spelling corrector).
//
//   - fork: a fresh NewState, the struct deep-copied in, the sessions
//     copied. The copy is a typed reflect walk, not a JSON round trip,
//     which costs several times as much on every campaign checkpoint;
//   - image: the struct's JSON with "sessions" appended as the last key,
//     canonical bytes that compare two worlds (nothing restores one);
//   - reset: Env.Reset rebuilds the state with NewState.
//
// The struct may hold bools, numbers, strings, and slices, arrays, maps
// (string or integer keys) and structs of those, in exported fields.
// Pointer, interface, func and chan fields are refused with
// *NotDeclaredError: a copy could not reproduce them. States without a
// Declarer still work everywhere: Env.Fork and images fail with
// *NotDeclaredError, and callers replay the trace prefix in a fresh
// environment instead (the flat campaign path).
type Declarer interface {
	Declare() (mu *sync.Mutex, data any, srv *webapp.Server)
}

// NotDeclaredError reports a fork or image of an application whose
// state does not implement Declarer, or declares something the derived
// copy and codec cannot carry.
type NotDeclaredError struct{ App, Reason string }

func (e *NotDeclaredError) Error() string {
	return fmt.Sprintf("registry: app %q cannot fork or image: %s (replay the trace prefix instead)", e.App, e.Reason)
}

// declaration resolves a state's declaration, refusing states without
// one and declared types the derivation cannot carry.
func declaration(app string, st AppState) (*sync.Mutex, reflect.Value, *webapp.Server, error) {
	d, ok := st.(Declarer)
	if !ok {
		return nil, reflect.Value{}, nil, &NotDeclaredError{app, fmt.Sprintf("state %T does not implement Declarer", st)}
	}
	mu, data, srv := d.Declare()
	v := reflect.ValueOf(data)
	var reason string
	switch {
	case mu == nil || srv == nil:
		reason = "Declare returned a nil lock or server"
	case v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct:
		reason = fmt.Sprintf("Declare returned %T, not a pointer to a struct", data)
	default:
		reason = checkType(v.Elem().Type())
	}
	if reason != "" {
		return nil, reflect.Value{}, nil, &NotDeclaredError{app, reason}
	}
	return mu, v.Elem(), srv, nil
}

// typeChecks caches checkType's verdict per declared type.
var typeChecks sync.Map // reflect.Type -> string

// checkType returns why a declared struct type cannot be forked and
// imaged, or "" when it can.
func checkType(t reflect.Type) string {
	if r, ok := typeChecks.Load(t); ok {
		return r.(string)
	}
	r := walkType(t, t.Name(), map[reflect.Type]bool{})
	for i := 0; r == "" && i < t.NumField(); i++ {
		if strings.EqualFold(jsonName(t.Field(i)), "sessions") {
			r = fmt.Sprintf("field %s.%s collides with the image's sessions key", t.Name(), t.Field(i).Name)
		}
	}
	typeChecks.Store(t, r)
	return r
}

func walkType(t reflect.Type, path string, seen map[reflect.Type]bool) string {
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return ""
	case reflect.Map:
		if k := t.Key().Kind(); k != reflect.String && (k < reflect.Int || k > reflect.Uint64) {
			return fmt.Sprintf("%s has %s keys", path, t.Key())
		}
		return walkType(t.Elem(), path+"[]", seen)
	case reflect.Slice, reflect.Array:
		return walkType(t.Elem(), path+"[]", seen)
	case reflect.Struct:
		if seen[t] {
			return ""
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || jsonName(f) == "-" {
				return fmt.Sprintf("field %s.%s is not serialized", path, f.Name)
			}
			if r := walkType(f.Type, path+"."+f.Name, seen); r != "" {
				return r
			}
		}
		return ""
	}
	return fmt.Sprintf("%s has unsupported kind %s", path, t.Kind())
}

// jsonName is the key encoding/json gives a struct field.
func jsonName(f reflect.StructField) string {
	if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" {
		return name
	}
	return f.Name
}

// unshare replaces every slice and map reachable from the settable v
// with a fresh copy, keeping nil and empty apart: applied to a shallow
// copy, it completes a deep one.
func unshare(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			unshare(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			unshare(v.Index(i))
		}
	case reflect.Slice:
		if !v.IsNil() {
			s := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			reflect.Copy(s, v)
			for i := 0; i < s.Len(); i++ {
				unshare(s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Map:
		if !v.IsNil() {
			m := reflect.MakeMapWithSize(v.Type(), v.Len())
			key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			for it := v.MapRange(); it.Next(); {
				key.SetIterKey(it)
				elem.SetIterValue(it)
				unshare(elem)
				m.SetMapIndex(key, elem)
			}
			v.Set(m)
		}
	}
}

// forkState derives a fork of st: a fresh NewState with st's declared
// state deep-copied in and its issued sessions carried over, so the
// fork recognizes the same sid cookies and mints the same future ones.
func forkState(a App, st AppState) (AppState, error) {
	mu, src, srv, err := declaration(a.Name(), st)
	if err != nil {
		return nil, err
	}
	dup := a.NewState()
	_, dst, dsrv, err := declaration(a.Name(), dup)
	if err != nil {
		return nil, err
	}
	mu.Lock()
	dst.Set(src)
	unshare(dst)
	mu.Unlock()
	dsrv.ImportSessions(srv.ExportSessions())
	return dup, nil
}

// marshalState derives a state's image: the declared struct's JSON with
// the issued sessions appended as the last key. encoding/json sorts map
// keys, so identical states marshal to identical bytes — the property
// world-equality checks rely on.
func marshalState(app string, st AppState) ([]byte, error) {
	mu, data, srv, err := declaration(app, st)
	if err != nil {
		return nil, err
	}
	mu.Lock()
	b, err := json.Marshal(data.Addr().Interface())
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	sess, err := json.Marshal(srv.ExportSessions())
	if err != nil {
		return nil, err
	}
	if b = b[:len(b)-1]; len(b) > 1 {
		b = append(b, ',')
	}
	b = append(b, `"sessions":`...)
	return append(append(b, sess...), '}'), nil
}
