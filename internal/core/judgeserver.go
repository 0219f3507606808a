package core

import (
	"errors"
	"fmt"
	"sync"

	"whopay/internal/bus"
	"whopay/internal/groupsig"
	"whopay/internal/sig"
	"whopay/internal/wire"
)

// Remote enrollment: in single-process deployments peers enroll with an
// in-process *Judge; multi-process deployments run a JudgeServer and peers
// enroll over the bus (PeerConfig.JudgeAddr). Either way the member
// generates its credential key pairs and sends only the public halves; the
// judge draws serials and certifies. No private key crosses the wire.

// EnrollRequest registers an identity with the judge and has it certify the
// member's first batch of credential keys. The identity's public key is
// bound on first enrollment (trust-on-first-use); refills must be signed by
// it.
type EnrollRequest struct {
	Identity string
	Keys     []sig.PublicKey
	Pub      sig.PublicKey
	Sig      []byte
}

func enrollMessage(identity string, keys []sig.PublicKey, pub sig.PublicKey) []byte {
	out := []byte("whopay/msg/enroll/2")
	out = appendBytes(out, []byte(identity))
	out = wire.AppendList(out, keys, appendKey)
	out = appendBytes(out, pub)
	return out
}

// EnrollResponse carries the group public key and one credential per
// requested key, in request order.
type EnrollResponse struct {
	GroupPub    sig.PublicKey
	Credentials []groupsig.Credential
}

// RefillRequest has the judge certify a fresh batch of credential keys.
// The fresh keys make every request unique: the judge refuses any key it
// has certified before, so a replayed request certifies nothing.
type RefillRequest struct {
	Identity string
	Keys     []sig.PublicKey
	Sig      []byte
}

func refillMessage(identity string, keys []sig.PublicKey) []byte {
	out := []byte("whopay/msg/refill/2")
	out = appendBytes(out, []byte(identity))
	out = wire.AppendList(out, keys, appendKey)
	return out
}

// RefillResponse carries one credential per requested key, in request
// order.
type RefillResponse struct {
	Credentials []groupsig.Credential
}

// maxCredentialBatch bounds per-request certification so a compromised
// member key cannot drain the judge.
const maxCredentialBatch = 256

// checkCredentialKeys refuses an empty or oversized batch and empty keys.
func checkCredentialKeys(keys []sig.PublicKey) error {
	if len(keys) == 0 || len(keys) > maxCredentialBatch {
		return fmt.Errorf("%w: batch of %d credential keys", ErrBadRequest, len(keys))
	}
	for _, k := range keys {
		if len(k) == 0 {
			return fmt.Errorf("%w: empty credential key", ErrBadRequest)
		}
	}
	return nil
}

// JudgeServer exposes a Judge over the bus.
type JudgeServer struct {
	judge  *Judge
	suite  sig.Suite
	ep     bus.Endpoint
	mu     sync.Mutex
	pubKey map[string]sig.PublicKey // identity -> enrollment key (TOFU)
}

// NewJudgeServer starts serving judge enrollment at addr.
func NewJudgeServer(network bus.Network, addr bus.Address, judge *Judge, scheme sig.Scheme) (*JudgeServer, error) {
	if judge == nil {
		return nil, errors.New("core: nil judge")
	}
	s := &JudgeServer{
		judge: judge,
		// Refills re-verify the same enrollment keys over and over — the
		// decoded-key cache makes that a one-time parse per identity.
		// (Null schemes bypass the cache internally.)
		suite:  sig.Suite{Scheme: sig.NewCached(scheme, sig.CacheOptions{})},
		pubKey: make(map[string]sig.PublicKey),
	}
	ep, err := network.Listen(addr, s.handle)
	if err != nil {
		return nil, fmt.Errorf("core: judge server listen: %w", err)
	}
	s.ep = ep
	return s, nil
}

// Addr returns the server's bound address.
func (s *JudgeServer) Addr() bus.Address { return s.ep.Addr() }

// Close stops the server.
func (s *JudgeServer) Close() error { return s.ep.Close() }

func (s *JudgeServer) handle(from bus.Address, msg any) (any, error) {
	switch m := msg.(type) {
	case EnrollRequest:
		return s.handleEnroll(m)
	case RefillRequest:
		return s.handleRefill(m)
	default:
		return nil, fmt.Errorf("%w: judge got %T", ErrBadRequest, msg)
	}
}

func (s *JudgeServer) handleEnroll(m EnrollRequest) (any, error) {
	if m.Identity == "" || len(m.Pub) == 0 {
		return nil, fmt.Errorf("%w: empty identity or key", ErrBadRequest)
	}
	if err := checkCredentialKeys(m.Keys); err != nil {
		return nil, err
	}
	if err := s.suite.Verify(m.Pub, enrollMessage(m.Identity, m.Keys, m.Pub), m.Sig); err != nil {
		return nil, fmt.Errorf("%w: enrollment signature: %v", ErrBadRequest, err)
	}
	s.mu.Lock()
	if existing, ok := s.pubKey[m.Identity]; ok && !existing.Equal(m.Pub) {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: identity %q already enrolled under a different key", ErrBadRequest, m.Identity)
	}
	s.pubKey[m.Identity] = m.Pub.Clone()
	s.mu.Unlock()

	if err := s.judge.mgr.Admit(m.Identity); err != nil {
		return nil, err
	}
	creds, err := s.judge.mgr.Certify(m.Identity, m.Keys)
	if err != nil {
		return nil, err
	}
	return EnrollResponse{GroupPub: s.judge.GroupPublicKey(), Credentials: creds}, nil
}

func (s *JudgeServer) handleRefill(m RefillRequest) (any, error) {
	if err := checkCredentialKeys(m.Keys); err != nil {
		return nil, err
	}
	s.mu.Lock()
	pub, ok := s.pubKey[m.Identity]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q not enrolled here", ErrUnknownIdentity, m.Identity)
	}
	if err := s.suite.Verify(pub, refillMessage(m.Identity, m.Keys), m.Sig); err != nil {
		return nil, fmt.Errorf("%w: refill signature: %v", ErrBadRequest, err)
	}
	creds, err := s.judge.mgr.Certify(m.Identity, m.Keys)
	if err != nil {
		return nil, err
	}
	return RefillResponse{Credentials: creds}, nil
}

// enrollRemotely builds the peer's member key over the bus: the key's first
// batch of credential keys rides an EnrollRequest, every later batch a
// RefillRequest, each signed by the peer's identity key.
func (p *Peer) enrollRemotely(judgeAddr bus.Address, poolSize int) (*groupsig.MemberKey, sig.PublicKey, error) {
	var groupPub sig.PublicKey // set by the enrollment response
	certify := func(keys []sig.PublicKey) ([]groupsig.Credential, error) {
		if groupPub == nil {
			req := EnrollRequest{Identity: p.cfg.ID, Keys: keys, Pub: p.keys.Public}
			var err error
			if req.Sig, err = p.suite.Sign(p.keys.Private, enrollMessage(req.Identity, req.Keys, req.Pub)); err != nil {
				return nil, fmt.Errorf("core: signing enrollment: %w", err)
			}
			resp, err := callJudge[EnrollResponse](p, judgeAddr, req)
			groupPub = resp.GroupPub
			return resp.Credentials, err
		}
		req := RefillRequest{Identity: p.cfg.ID, Keys: keys}
		var err error
		if req.Sig, err = p.suite.Sign(p.keys.Private, refillMessage(req.Identity, req.Keys)); err != nil {
			return nil, fmt.Errorf("core: signing refill: %w", err)
		}
		resp, err := callJudge[RefillResponse](p, judgeAddr, req)
		return resp.Credentials, err
	}
	mk, err := groupsig.NewMemberKey(p.cfg.Scheme, p.cfg.ID, poolSize, certify)
	if err != nil {
		return nil, nil, fmt.Errorf("core: remote enrollment: %w", err)
	}
	return mk, groupPub, nil
}

// callJudge sends req to the judge and checks the response's type.
func callJudge[R any](p *Peer, judgeAddr bus.Address, req any) (R, error) {
	var resp R
	raw, err := p.ep.Call(judgeAddr, req)
	if err != nil {
		return resp, err
	}
	resp, ok := raw.(R)
	if !ok {
		return resp, fmt.Errorf("%w: unexpected judge response %T", ErrBadRequest, raw)
	}
	return resp, nil
}
