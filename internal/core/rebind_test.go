package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"whopay/internal/coin"
	"whopay/internal/sig"
)

// TestRebindOwnerAndBrokerAgree: the owner and the broker service transfers
// and renewals through one decision. Each row runs rebind twice — under the
// owner's coin key, and under the broker's key with byBroker — and both
// signers must reach the same verdict: the same sentinel, or the same
// holder, seq, expiry and relinquishment proof, with each binding verifying
// under its own signer's key.
func TestRebindOwnerAndBrokerAgree(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	u := f.addPeer("u", nil)
	v := f.addPeer("v", nil)
	id, err := u.Purchase(1, false)
	if err != nil {
		t.Fatal(err)
	}
	oc, _ := u.owned.Get(id)
	c := oc.c
	holder, err := u.suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := u.suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	payee, err := u.suite.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}

	const period = 72 * time.Hour
	now := f.clock.Now()
	live := &coin.Binding{CoinPub: c.Pub, Holder: holder.Public, Seq: 7, Expiry: now.Add(time.Hour).Unix()}
	expired := &coin.Binding{CoinPub: c.Pub, Holder: holder.Public, Seq: 7, Expiry: now.Add(-time.Hour).Unix()}

	// req builds a request citing seq, holder-signed with by and
	// group-signed (through v's credential) over groupMsg, or over the
	// holder-signed bytes when groupMsg is nil.
	req := func(renewal bool, seq uint64, by sig.PrivateKey, groupMsg []byte) rebindReq {
		t.Helper()
		var r rebindReq
		if renewal {
			r = renewReq(&RenewRequest{CoinPub: c.Pub, Seq: seq})
		} else {
			r = transferReq(&TransferRequest{Body: coin.TransferBody{
				CoinPub: c.Pub, NewHolder: payee.Public, PrevSeq: seq, Nonce: []byte("nonce"), PayeeAddr: "payee",
			}})
		}
		if r.holderSig, err = v.suite.Sign(by, r.msg); err != nil {
			t.Fatal(err)
		}
		if groupMsg == nil {
			groupMsg = r.msg
		}
		if r.groupSig, err = v.member.Sign(v.suite, groupMsg); err != nil {
			t.Fatal(err)
		}
		return r
	}

	rows := []struct {
		name       string
		cur        *coin.Binding
		r          rebindReq
		wantErr    error
		wantHolder sig.PublicKey
		wantExpiry int64
	}{
		{"transfer", live, req(false, 7, holder.Private, nil), nil, payee.Public, live.Expiry},
		{"renewal", live, req(true, 7, holder.Private, nil), nil, holder.Public, now.Add(period).Unix()},
		{"expired-transfer", expired, req(false, 7, holder.Private, nil), nil, payee.Public, now.Add(period).Unix()},
		{"expired-renewal", expired, req(true, 7, holder.Private, nil), nil, holder.Public, now.Add(period).Unix()},
		{"stale-seq", live, req(false, 6, holder.Private, nil), ErrStaleBinding, nil, 0},
		{"wrong-holder-key", live, req(false, 7, stranger.Private, nil), ErrNotHolder, nil, 0},
		{"group-sig-over-other-bytes", live, req(true, 7, holder.Private, []byte("other bytes")), ErrBadRequest, nil, 0},
	}
	type signer struct {
		name     string
		run      func(cur *coin.Binding, r rebindReq) (*coin.Binding, RelinquishProof, error)
		byBroker bool
	}
	signers := []signer{
		{"owner", func(cur *coin.Binding, r rebindReq) (*coin.Binding, RelinquishProof, error) {
			return rebind(u.suite, u.gsv, u.groupPub, oc.coinKeys.Private, false, c, cur, r, now, period)
		}, false},
		{"broker", func(cur *coin.Binding, r rebindReq) (*coin.Binding, RelinquishProof, error) {
			b := f.broker
			return rebind(b.suite, b.gsv, b.cfg.GroupPub, b.keys.Private, true, c, cur, r, now, period)
		}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var bindings [2]*coin.Binding
			var proofs [2]RelinquishProof
			for i, s := range signers {
				next, proof, err := s.run(row.cur, row.r)
				if row.wantErr != nil {
					if !errors.Is(err, row.wantErr) {
						t.Fatalf("%s: err = %v, want %v", s.name, err, row.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if next.ByBroker != s.byBroker {
					t.Fatalf("%s: ByBroker = %v", s.name, next.ByBroker)
				}
				if err := next.VerifyFor(u.suite, c, f.broker.PublicKey(), time.Time{}); err != nil {
					t.Fatalf("%s: binding does not verify under its signer's key: %v", s.name, err)
				}
				if !next.Holder.Equal(row.wantHolder) || next.Seq != row.cur.Seq+1 || next.Expiry != row.wantExpiry {
					t.Fatalf("%s: binding holder/seq/expiry = %x/%d/%d, want %x/%d/%d",
						s.name, next.Holder, next.Seq, next.Expiry, row.wantHolder, row.cur.Seq+1, row.wantExpiry)
				}
				if proof.Renewal != row.r.renewal || proof.Body.PrevSeq != row.cur.Seq || !proof.PrevHold.Equal(holder.Public) {
					t.Fatalf("%s: proof = %+v", s.name, proof)
				}
				bindings[i], proofs[i] = next, proof
			}
			if row.wantErr != nil {
				return
			}
			o, b := bindings[0], bindings[1]
			if !o.Holder.Equal(b.Holder) || o.Seq != b.Seq || o.Expiry != b.Expiry {
				t.Fatalf("owner and broker bindings differ: %+v vs %+v", o, b)
			}
			if !reflect.DeepEqual(proofs[0], proofs[1]) {
				t.Fatalf("owner and broker proofs differ: %+v vs %+v", proofs[0], proofs[1])
			}
		})
	}
}
