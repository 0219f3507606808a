// Package groupsig provides the group-signature functionality WhoPay uses
// for fairness (paper Section 3.2): every user enrolls with a trusted judge
// and signs sensitive messages in a way that (a) proves membership to any
// verifier holding the group public key, (b) reveals nothing about the
// signer's identity and is unlinkable across signatures, and (c) lets the
// judge — and only the judge — open a signature to recover the signer.
//
// Construction (documented substitution, see DESIGN.md §5): instead of a
// pairing-based scheme, the judge issues each member a pool of one-time
// credentials. A credential is a fresh key pair whose public half is
// certified by the judge's master key together with an opaque serial number;
// the judge privately maps serials to identities. Signing consumes one
// credential, so distinct signatures carry distinct serials and are
// unlinkable. Verification checks the judge's certificate and the
// credential signature — about twice the cost of a plain signature, which
// matches the 2x relative cost the paper assumes for group signatures
// (Table 3).
package groupsig

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"whopay/internal/shamir"
	"whopay/internal/sig"
)

// Errors returned by this package.
var (
	// ErrNotMember is returned by Verify when the credential certificate
	// does not validate under the group public key.
	ErrNotMember = errors.New("groupsig: credential not certified by this group")
	// ErrBadSignature is returned by Verify when the message signature
	// does not validate under the credential key.
	ErrBadSignature = errors.New("groupsig: invalid signature")
	// ErrUnknownSerial is returned by Open for serials the judge never
	// issued.
	ErrUnknownSerial = errors.New("groupsig: unknown credential serial")
	// ErrRevoked is returned when a revoked member requests credentials.
	ErrRevoked = errors.New("groupsig: member revoked")
	// ErrNoCredentials is returned by Sign when the pool is empty and no
	// refill source is available.
	ErrNoCredentials = errors.New("groupsig: credential pool exhausted")
	// ErrCredentialRevoked is returned by Verifier.Verify for signatures
	// made with a credential whose serial is on the revocation list.
	ErrCredentialRevoked = errors.New("groupsig: credential revoked")
)

// Credential is the public part of a one-time signing credential: a fresh
// public key certified by the judge. Cert signs CredentialMessage(Serial,
// Pub) under the group master key.
type Credential struct {
	Serial uint64
	Pub    sig.PublicKey
	Cert   []byte
}

// Signature is a group signature: a one-time credential plus a signature by
// the credential key over the message. It reveals no identity; the judge
// can map Serial back to the enrolled member.
type Signature struct {
	Cred Credential
	Sig  []byte
}

// credentialMessagePrefix domain-separates judge certificates from every
// other signed byte string in the protocol.
const credentialMessagePrefix = "whopay/groupsig/credential/1"

// CredentialMessage is the canonical byte string the judge certifies for a
// credential: prefix ‖ serial ‖ credential public key. Exported so batch
// verifiers can build certificate-check jobs without re-deriving the format.
func CredentialMessage(serial uint64, pub sig.PublicKey) []byte {
	return appendCredentialMessage(make([]byte, 0, len(credentialMessagePrefix)+8+len(pub)), serial, pub)
}

func appendCredentialMessage(dst []byte, serial uint64, pub sig.PublicKey) []byte {
	dst = append(dst, credentialMessagePrefix...)
	dst = binary.BigEndian.AppendUint64(dst, serial)
	dst = append(dst, pub...)
	return dst
}

// credMsgBufs recycles credential-message buffers across Verify calls: no
// scheme retains the message bytes past the call (they are hashed), so the
// buffer can go straight back in the pool.
var credMsgBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 128)
		return &b
	},
}

// Verify checks that gs is a valid group signature over msg for the group
// identified by groupPub. It records one group-verification micro-op on the
// suite's recorder (the underlying two plain verifications are deliberately
// not double-counted; Table 3 weighs the group operation as a unit).
func Verify(suite sig.Suite, groupPub sig.PublicKey, msg []byte, gs Signature) error {
	if suite.Rec != nil {
		suite.Rec.RecordGroupVerify()
	}
	bp := credMsgBufs.Get().(*[]byte)
	credMsg := appendCredentialMessage((*bp)[:0], gs.Cred.Serial, gs.Cred.Pub)
	// The certificate and message checks are independent, so hand them to
	// the scheme as one batch: a BatchVerifier scheme (sig.Cached) can
	// overlap them and share its memo. Scheme-level batching leaves the
	// group-verify accounting above as the only recorded micro-op.
	errs := sig.VerifyBatch(suite.Scheme, []sig.VerifyJob{
		{Pub: groupPub, Msg: credMsg, Sig: gs.Cred.Cert},
		{Pub: gs.Cred.Pub, Msg: msg, Sig: gs.Sig},
	})
	*bp = credMsg[:0]
	credMsgBufs.Put(bp)
	if errs[0] != nil {
		return fmt.Errorf("%w: %v", ErrNotMember, errs[0])
	}
	if errs[1] != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, errs[1])
	}
	return nil
}

// Verifier is the relying-party view of the group: the group public key
// plus a credential revocation list (CRL). The base construction
// deliberately has no CRL — outstanding one-time credentials stay
// verifiable after their owner is revoked, openable to the cheater — but
// entities that learn of revocations (from the judge's verdicts) can refuse
// those credentials going forward. Verifier is also the invalidation seam
// for the verification fast path: OnRevoke hooks a sig.Cached so revoked
// credential keys are purged from the memo. Safe for concurrent use.
type Verifier struct {
	groupPub sig.PublicKey

	mu      sync.RWMutex
	revoked map[uint64]struct{}

	// OnRevoke, when set, is called once per revoked credential public key
	// (outside the Verifier's lock) — wire it to sig.Cached.InvalidateKey.
	OnRevoke func(pub sig.PublicKey)
}

// NewVerifier creates a Verifier for the group identified by groupPub with
// an empty revocation list.
func NewVerifier(groupPub sig.PublicKey) *Verifier {
	return &Verifier{
		groupPub: groupPub.Clone(),
		revoked:  make(map[uint64]struct{}),
	}
}

// GroupPublicKey returns the group public key signatures are checked under.
func (v *Verifier) GroupPublicKey() sig.PublicKey { return v.groupPub.Clone() }

// Revoke adds credential serials to the CRL and runs the OnRevoke hook for
// each corresponding public key (pubs is index-aligned with serials; a
// shorter pubs slice just skips the hook for the tail).
func (v *Verifier) Revoke(serials []uint64, pubs []sig.PublicKey) {
	v.mu.Lock()
	for _, s := range serials {
		v.revoked[s] = struct{}{}
	}
	v.mu.Unlock()
	if v.OnRevoke != nil {
		for _, pub := range pubs {
			v.OnRevoke(pub)
		}
	}
}

// IsRevoked reports whether a credential serial is on the CRL.
func (v *Verifier) IsRevoked(serial uint64) bool {
	v.mu.RLock()
	_, ok := v.revoked[serial]
	v.mu.RUnlock()
	return ok
}

// Verify checks gs over msg like the package-level Verify, but first rejects
// credentials on the CRL. The CRL check precedes all cryptography — and in
// particular any memoized positive result — so revocation takes effect
// immediately even for signatures that verified before the revocation.
func (v *Verifier) Verify(suite sig.Suite, msg []byte, gs Signature) error {
	if v.IsRevoked(gs.Cred.Serial) {
		if suite.Rec != nil {
			suite.Rec.RecordGroupVerify()
		}
		return fmt.Errorf("%w: serial %d", ErrCredentialRevoked, gs.Cred.Serial)
	}
	return Verify(suite, v.groupPub, msg, gs)
}

// secretCredential pairs a credential with its private key; it never leaves
// the member.
type secretCredential struct {
	cred Credential
	priv sig.PrivateKey
}

// IssuedCredential is the transferable form of a credential plus its
// private key, used when enrollment happens over a network (the judge
// issues, the member imports). Transport confidentiality is the caller's
// problem: anyone who reads Priv can sign as the member.
type IssuedCredential struct {
	Cred Credential
	Priv sig.PrivateKey
}

// MemberKey is a member's group private key: a pool of one-time credentials
// plus a refill channel back to the judge. Safe for concurrent use.
type MemberKey struct {
	identity string
	groupPub sig.PublicKey

	mu     sync.Mutex
	pool   []secretCredential
	refill func(n int) ([]secretCredential, error)
}

// Identity returns the enrolled identity this key was issued to. The
// identity is local to the member and the judge; it is never embedded in
// signatures.
func (mk *MemberKey) Identity() string { return mk.identity }

// GroupPublicKey returns the group public key credentials are certified
// under.
func (mk *MemberKey) GroupPublicKey() sig.PublicKey { return mk.groupPub.Clone() }

// PoolSize reports how many unused credentials remain.
func (mk *MemberKey) PoolSize() int {
	mk.mu.Lock()
	defer mk.mu.Unlock()
	return len(mk.pool)
}

// refillBatch is how many credentials a member fetches when its pool runs
// dry. Larger batches amortize judge round-trips.
const refillBatch = 32

// Sign produces a group signature over msg, consuming one credential. It
// records one group-signing micro-op on the suite's recorder. When the pool
// is empty the member transparently requests a refill from the judge.
func (mk *MemberKey) Sign(suite sig.Suite, msg []byte) (Signature, error) {
	if suite.Rec != nil {
		suite.Rec.RecordGroupSign()
	}
	sc, err := mk.take()
	if err != nil {
		return Signature{}, err
	}
	sigBytes, err := suite.Scheme.Sign(sc.priv, msg)
	if err != nil {
		return Signature{}, fmt.Errorf("groupsig: signing with credential %d: %w", sc.cred.Serial, err)
	}
	return Signature{Cred: sc.cred, Sig: sigBytes}, nil
}

func (mk *MemberKey) take() (secretCredential, error) {
	mk.mu.Lock()
	defer mk.mu.Unlock()
	if len(mk.pool) == 0 {
		if mk.refill == nil {
			return secretCredential{}, ErrNoCredentials
		}
		fresh, err := mk.refill(refillBatch)
		if err != nil {
			return secretCredential{}, fmt.Errorf("groupsig: refilling credentials: %w", err)
		}
		mk.pool = fresh
	}
	sc := mk.pool[len(mk.pool)-1]
	mk.pool = mk.pool[:len(mk.pool)-1]
	return sc, nil
}

// Manager is the judge-side group manager: it enrolls members, issues
// credentials, and opens signatures. Safe for concurrent use.
type Manager struct {
	scheme sig.Scheme
	master sig.KeyPair

	mu       sync.Mutex
	serials  map[uint64]issuedCredential // credential serial -> issuance record
	enrolled map[string]bool
	revoked  map[string]bool
}

// issuedCredential is the judge's private record of one minted credential:
// who it was issued to, and its public key so revocation can name the keys
// relying parties should forget.
type issuedCredential struct {
	identity string
	pub      sig.PublicKey
}

// NewManager creates a group with a fresh master key under scheme.
func NewManager(scheme sig.Scheme) (*Manager, error) {
	master, err := scheme.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("groupsig: generating master key: %w", err)
	}
	return &Manager{
		scheme:   scheme,
		master:   master,
		serials:  make(map[uint64]issuedCredential),
		enrolled: make(map[string]bool),
		revoked:  make(map[string]bool),
	}, nil
}

// GroupPublicKey returns the master public key verifiers use.
func (m *Manager) GroupPublicKey() sig.PublicKey { return m.master.Public.Clone() }

// Enroll registers identity with the group and returns its member key,
// pre-charged with poolSize one-time credentials. Enrolling the same
// identity again yields a fresh key (e.g. after device loss); old unused
// credentials remain openable to the same identity.
func (m *Manager) Enroll(identity string, poolSize int) (*MemberKey, error) {
	if identity == "" {
		return nil, errors.New("groupsig: empty identity")
	}
	m.mu.Lock()
	if m.revoked[identity] {
		m.mu.Unlock()
		return nil, fmt.Errorf("enrolling %q: %w", identity, ErrRevoked)
	}
	m.enrolled[identity] = true
	m.mu.Unlock()

	mk := &MemberKey{
		identity: identity,
		groupPub: m.master.Public.Clone(),
		refill:   func(n int) ([]secretCredential, error) { return m.issue(identity, n) },
	}
	pool, err := m.issue(identity, poolSize)
	if err != nil {
		return nil, err
	}
	mk.pool = pool
	return mk, nil
}

// issue mints n one-time credentials for identity. Each serial is drawn
// uniformly at random and reserved in the judge's map under m.mu (a draw
// that collides with any serial ever issued is redrawn), so a serial tells
// an observer nothing about its holder or about any other serial.
func (m *Manager) issue(identity string, n int) ([]secretCredential, error) {
	m.mu.Lock()
	if m.revoked[identity] {
		m.mu.Unlock()
		return nil, fmt.Errorf("issuing to %q: %w", identity, ErrRevoked)
	}
	if !m.enrolled[identity] {
		m.mu.Unlock()
		return nil, fmt.Errorf("groupsig: %q not enrolled", identity)
	}
	serials := make([]uint64, 0, n)
	var draw [8]byte
	for len(serials) < n {
		if _, err := rand.Read(draw[:]); err != nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("groupsig: drawing a serial: %w", err)
		}
		serial := binary.BigEndian.Uint64(draw[:])
		if _, taken := m.serials[serial]; taken {
			continue
		}
		m.serials[serial] = issuedCredential{identity: identity}
		serials = append(serials, serial)
	}
	m.mu.Unlock()

	out := make([]secretCredential, 0, n)
	for _, serial := range serials {
		kp, err := m.scheme.GenerateKey()
		if err != nil {
			return nil, fmt.Errorf("groupsig: credential keygen: %w", err)
		}
		cert, err := m.scheme.Sign(m.master.Private, CredentialMessage(serial, kp.Public))
		if err != nil {
			return nil, fmt.Errorf("groupsig: certifying credential: %w", err)
		}
		out = append(out, secretCredential{
			cred: Credential{Serial: serial, Pub: kp.Public, Cert: cert},
			priv: kp.Private,
		})
	}
	m.mu.Lock()
	for _, sc := range out {
		m.serials[sc.cred.Serial] = issuedCredential{identity: identity, pub: sc.cred.Pub}
	}
	m.mu.Unlock()
	return out, nil
}

// IssueCredentials mints n one-time credentials for an enrolled identity
// in transferable form (remote enrollment / refill).
func (m *Manager) IssueCredentials(identity string, n int) ([]IssuedCredential, error) {
	secrets, err := m.issue(identity, n)
	if err != nil {
		return nil, err
	}
	out := make([]IssuedCredential, len(secrets))
	for i, sc := range secrets {
		out[i] = IssuedCredential{Cred: sc.cred, Priv: sc.priv}
	}
	return out, nil
}

// EnrollRemote registers identity and returns its initial credentials in
// transferable form; combine with NewMemberKey on the member side.
func (m *Manager) EnrollRemote(identity string, poolSize int) ([]IssuedCredential, error) {
	if identity == "" {
		return nil, errors.New("groupsig: empty identity")
	}
	m.mu.Lock()
	if m.revoked[identity] {
		m.mu.Unlock()
		return nil, fmt.Errorf("enrolling %q: %w", identity, ErrRevoked)
	}
	m.enrolled[identity] = true
	m.mu.Unlock()
	return m.IssueCredentials(identity, poolSize)
}

// NewMemberKey assembles a member key from remotely issued credentials.
// refill (may be nil) is called when the pool runs dry — typically an RPC
// back to the judge.
func NewMemberKey(identity string, groupPub sig.PublicKey, creds []IssuedCredential, refill func(n int) ([]IssuedCredential, error)) *MemberKey {
	mk := &MemberKey{identity: identity, groupPub: groupPub.Clone()}
	mk.pool = importCredentials(creds)
	if refill != nil {
		mk.refill = func(n int) ([]secretCredential, error) {
			fresh, err := refill(n)
			if err != nil {
				return nil, err
			}
			return importCredentials(fresh), nil
		}
	}
	return mk
}

func importCredentials(creds []IssuedCredential) []secretCredential {
	out := make([]secretCredential, len(creds))
	for i, ic := range creds {
		out[i] = secretCredential{cred: ic.Cred, priv: ic.Priv}
	}
	return out
}

// Open reveals the identity behind a group signature. It first verifies the
// signature so a forged serial cannot frame an innocent member. This is the
// fairness operation: the paper's judge performs it only on transactions
// under investigation and learns nothing about others.
func (m *Manager) Open(msg []byte, gs Signature) (string, error) {
	if err := Verify(sig.Suite{Scheme: m.scheme}, m.master.Public, msg, gs); err != nil {
		return "", fmt.Errorf("groupsig: refusing to open unverified signature: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.serials[gs.Cred.Serial]
	if !ok {
		return "", ErrUnknownSerial
	}
	return rec.identity, nil
}

// Revoke bars identity from obtaining further credentials and returns the
// serials and public keys of every credential already issued to it (index-
// aligned). Outstanding credentials remain verifiable under the base
// construction — every use stays openable to the revoked identity — but the
// returned lists let relying parties feed a Verifier CRL and invalidate
// verification caches so those credentials are refused going forward.
func (m *Manager) Revoke(identity string) (serials []uint64, pubs []sig.PublicKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.revoked[identity] = true
	for serial, rec := range m.serials {
		if rec.identity == identity {
			serials = append(serials, serial)
			pubs = append(pubs, rec.pub)
		}
	}
	return serials, pubs
}

// IsRevoked reports whether identity has been revoked.
func (m *Manager) IsRevoked(identity string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.revoked[identity]
}

// escrowChunk is the number of key bytes per Shamir secret; it keeps every
// chunk strictly below the 256-bit field prime regardless of content.
const escrowChunk = 31

// KeyShare is one judge's escrow share of a master key: one Shamir share
// per 31-byte chunk of the key.
type KeyShare struct {
	Chunks []shamir.Share
}

// EscrowMasterKey splits the master private key into n key shares with
// threshold k (paper Section 3.2: divide the master key among N judges via
// Shamir so at least K must cooperate to recover it). Keys longer than 31
// bytes are split chunk-wise; each chunk is an independent Shamir instance,
// so the threshold property holds for the whole key.
func (m *Manager) EscrowMasterKey(k, n int) ([]KeyShare, error) {
	priv := m.master.Private
	out := make([]KeyShare, n)
	for off := 0; off < len(priv); off += escrowChunk {
		end := off + escrowChunk
		if end > len(priv) {
			end = len(priv)
		}
		shares, err := shamir.Split(priv[off:end], k, n)
		if err != nil {
			return nil, fmt.Errorf("groupsig: escrowing key chunk at %d: %w", off, err)
		}
		for i := range out {
			out[i].Chunks = append(out[i].Chunks, shares[i])
		}
	}
	return out, nil
}

// RecoverMasterKey reconstructs a master private key from at least k escrow
// key shares. privLen must be the scheme's private key length.
func RecoverMasterKey(shares []KeyShare, privLen int) (sig.PrivateKey, error) {
	if len(shares) == 0 {
		return nil, errors.New("groupsig: no escrow shares")
	}
	numChunks := len(shares[0].Chunks)
	for _, s := range shares {
		if len(s.Chunks) != numChunks {
			return nil, errors.New("groupsig: escrow shares have mismatched chunk counts")
		}
	}
	priv := make(sig.PrivateKey, 0, privLen)
	for c := 0; c < numChunks; c++ {
		chunkLen := escrowChunk
		if c == numChunks-1 {
			chunkLen = privLen - c*escrowChunk
		}
		if chunkLen <= 0 {
			return nil, errors.New("groupsig: privLen inconsistent with share chunk count")
		}
		chunkShares := make([]shamir.Share, len(shares))
		for i, s := range shares {
			chunkShares[i] = s.Chunks[c]
		}
		raw, err := shamir.Combine(chunkShares, chunkLen)
		if err != nil {
			return nil, fmt.Errorf("groupsig: recovering key chunk %d: %w", c, err)
		}
		priv = append(priv, raw...)
	}
	return priv, nil
}
