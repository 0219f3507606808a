package core

import (
	"fmt"

	"whopay/internal/groupsig"
	"whopay/internal/sig"
)

// verifyHolderAndGroup checks the pair of signatures that guards every
// relinquishment-style request (downtime transfer, renew, deposit, owner
// service): the current holder's signature over msg, and the requester's
// group signature over the same msg for fairness.
//
// The three underlying checks — holder signature, judge certificate on the
// one-time credential, credential signature — are independent, so they run
// as one scheme-level batch and fan out in parallel under a BatchVerifier
// scheme. Recorded micro-ops (one Verify, one GroupVerify) and error
// precedence (holder first, then group, certificate before signature) are
// identical to the sequential pair this replaces.
//
// gsv, when non-nil, supplies the credential revocation list: a revoked
// serial fails closed before any group crypto runs (and before any memoized
// result could be consulted).
func verifyHolderAndGroup(suite sig.Suite, gsv *groupsig.Verifier, groupPub, holder sig.PublicKey, msg, holderSig []byte, gs groupsig.Signature) error {
	if err := precheckHolderAndGroup(suite, gsv, holder, msg, holderSig, gs); err != nil {
		return err
	}
	jobs := appendHolderAndGroupJobs(make([]sig.VerifyJob, 0, 3), groupPub, holder, msg, holderSig, gs)
	return holderAndGroupErr(sig.VerifyBatch(suite.Scheme, jobs))
}

// precheckHolderAndGroup is verifyHolderAndGroup's part before the batch:
// it records the pair's micro-ops and fails a revoked credential closed.
func precheckHolderAndGroup(suite sig.Suite, gsv *groupsig.Verifier, holder sig.PublicKey, msg, holderSig []byte, gs groupsig.Signature) error {
	if suite.Rec != nil {
		suite.Rec.RecordVerify()
		suite.Rec.RecordGroupVerify()
	}
	if gsv != nil && gsv.IsRevoked(gs.Cred.Serial) {
		// Keep holder-error precedence even on the revocation path.
		if err := suite.Scheme.Verify(holder, msg, holderSig); err != nil {
			return fmt.Errorf("%w: %v", ErrNotHolder, err)
		}
		return fmt.Errorf("%w: group signature: %v", ErrBadRequest,
			fmt.Errorf("%w: serial %d", groupsig.ErrCredentialRevoked, gs.Cred.Serial))
	}
	return nil
}

// appendHolderAndGroupJobs appends the pair's three checks to dst: holder
// signature, judge certificate on the credential, credential signature.
func appendHolderAndGroupJobs(dst []sig.VerifyJob, groupPub, holder sig.PublicKey, msg, holderSig []byte, gs groupsig.Signature) []sig.VerifyJob {
	return append(dst,
		sig.VerifyJob{Pub: holder, Msg: msg, Sig: holderSig},
		sig.VerifyJob{Pub: groupPub, Msg: groupsig.CredentialMessage(gs.Cred.Serial, gs.Cred.Pub), Sig: gs.Cred.Cert},
		sig.VerifyJob{Pub: gs.Cred.Pub, Msg: msg, Sig: gs.Sig},
	)
}

// holderAndGroupErr maps the three checks' errors, in
// appendHolderAndGroupJobs order, to the first failure by precedence.
func holderAndGroupErr(errs []error) error {
	if errs[0] != nil {
		return fmt.Errorf("%w: %v", ErrNotHolder, errs[0])
	}
	if errs[1] != nil {
		return fmt.Errorf("%w: group signature: %v", ErrBadRequest,
			fmt.Errorf("%w: %v", groupsig.ErrNotMember, errs[1]))
	}
	if errs[2] != nil {
		return fmt.Errorf("%w: group signature: %v", ErrBadRequest,
			fmt.Errorf("%w: %v", groupsig.ErrBadSignature, errs[2]))
	}
	return nil
}
