package wire

import (
	"fmt"
	"reflect"
	"sync"
)

// EncodeFunc appends the codec bytes for v (whose dynamic type is the
// registered one) to dst.
type EncodeFunc func(dst []byte, v any) ([]byte, error)

// DecodeFunc decodes one value from d. It must consume exactly the bytes
// its encoder produced; the caller verifies Done afterwards.
type DecodeFunc func(d *Decoder) (any, error)

// Entry is one registered wire type.
type Entry struct {
	Tag  uint64
	Name string
	Type reflect.Type
	Enc  EncodeFunc
	Dec  DecodeFunc
}

// The registry is written during package inits and read on every encoded
// call, so reads go through an RWMutex (contention-free in practice: the
// write side goes quiet once the process is up).
var (
	regMu     sync.RWMutex
	regByTag  = map[uint64]*Entry{}
	regByType = map[reflect.Type]*Entry{}
	regByName = map[string]*Entry{}
)

// Register installs the codec for prototype's type under tag and name.
// Tags and names are part of the wire contract: both peers must agree, so
// they are assigned explicitly where the protocol packages register their
// messages (never derived from Go type identity, which refactors change).
//
// Re-registering the identical (tag, name, type) triple is a no-op, so
// idempotent init paths stay cheap. Any divergent duplicate — the same
// name or tag bound to a different type, or the same type under a second
// identity — panics immediately with the conflict spelled out: a silent
// overwrite here would make two nodes disagree on what a tag means, which
// is wire corruption, not a recoverable error.
func Register(tag uint64, name string, prototype any, enc EncodeFunc, dec DecodeFunc) {
	if tag == 0 {
		panic("wire: tag 0 is reserved for untyped payloads")
	}
	if name == "" || prototype == nil || enc == nil || dec == nil {
		panic("wire: Register needs a name, prototype, encoder, and decoder")
	}
	t := reflect.TypeOf(prototype)
	regMu.Lock()
	defer regMu.Unlock()
	if e, ok := regByName[name]; ok {
		if e.Tag == tag && e.Type == t {
			return // idempotent re-registration
		}
		panic(fmt.Sprintf("wire: duplicate registration of %q: already tag %d type %v, now tag %d type %v",
			name, e.Tag, e.Type, tag, t))
	}
	if e, ok := regByTag[tag]; ok {
		panic(fmt.Sprintf("wire: tag %d already registered as %q (%v), cannot reuse for %q (%v)",
			tag, e.Name, e.Type, name, t))
	}
	if e, ok := regByType[t]; ok {
		panic(fmt.Sprintf("wire: type %v already registered as %q (tag %d), cannot re-register as %q (tag %d)",
			t, e.Name, e.Tag, name, tag))
	}
	e := &Entry{Tag: tag, Name: name, Type: t, Enc: enc, Dec: dec}
	regByTag[tag] = e
	regByType[t] = e
	regByName[name] = e
}

// ByTag returns the codec registered under tag.
func ByTag(tag uint64) (*Entry, bool) {
	regMu.RLock()
	e, ok := regByTag[tag]
	regMu.RUnlock()
	return e, ok
}

// ByValue returns the codec registered for v's dynamic type.
func ByValue(v any) (*Entry, bool) {
	if v == nil {
		return nil, false
	}
	t := reflect.TypeOf(v)
	regMu.RLock()
	e, ok := regByType[t]
	regMu.RUnlock()
	return e, ok
}

// Entries returns every registered codec, for parity and fuzz suites.
func Entries() []*Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Entry, 0, len(regByTag))
	for _, e := range regByTag {
		out = append(out, e)
	}
	return out
}

// Decode decodes a tagged payload: the registered codec runs, then the
// input must be exactly consumed — trailing bytes mean a type-confused or
// corrupt frame and are rejected.
func Decode(tag uint64, payload []byte) (any, error) {
	e, ok := ByTag(tag)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	d := NewDecoder(payload)
	v, err := e.Dec(&d)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", e.Name, err)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", e.Name, err)
	}
	return v, nil
}

// Nested any-valued fields (e.g. the indirection layer's forwarded inner
// message) encode as a one-byte shape marker followed by the value. Marker
// 1 is reserved and rejected.
const (
	anyNil    = 0 // no value
	anyTagged = 2 // uvarint tag + codec payload, inline
)

// AppendAny appends an any-valued field: nil, or a registered type via its
// codec. A type with no codec is an error.
func AppendAny(dst []byte, v any) ([]byte, error) {
	if v == nil {
		return append(dst, anyNil), nil
	}
	e, ok := ByValue(v)
	if !ok {
		return dst, fmt.Errorf("no wire codec for %T", v)
	}
	dst = append(dst, anyTagged)
	dst = AppendUvarint(dst, e.Tag)
	return e.Enc(dst, v)
}

// Any reads a field written by AppendAny.
func (d *Decoder) Any() (any, error) {
	marker, err := d.Byte()
	if err != nil {
		return nil, err
	}
	switch marker {
	case anyNil:
		return nil, nil
	case anyTagged:
		tag, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		e, ok := ByTag(tag)
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
		}
		v, err := e.Dec(d)
		if err != nil {
			return nil, fmt.Errorf("wire: decoding nested %s: %w", e.Name, err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("%w: bad any marker 0x%02x", ErrMalformed, marker)
	}
}
