"""qcspend: a quantum-cautious spending stack for UTXO ledgers.

The package has three layers:

* primitives -- a toy cyclic group with a brute-force discrete-log oracle
  standing in for the quantum adversary, a Schnorr-style pre-quantum
  signature, HD-wallet key derivation, and signature lifting (key- and
  seed-lifting) over a pluggable proof-of-preimage backend;
* protocols -- the commit-wait-reveal spending family in restrictive,
  unrestrictive, and permissive modes with deposits and fraud proofs, the
  lifted variant with locked commitments, miner claims, and delay fines,
  epoch rotation with throughput extensions, leak tracking, good-Samaritan
  reports, and the registry of known derived keys;
* analysis -- a deterministic desk-scale chain simulator with scripted
  honest and adversarial agents, plus the two-entity canary game solver.

Everything is deterministic: a scenario config plus a seed reproduces the
chain byte for byte.  The package holds what the chain, the simulator and
the CLI run.
"""

from .canary_game import (
    EntityTimeline,
    GameSpec,
    PayoffMatrix,
    ScenarioClass,
    Strategy,
    classify_timeline,
    payoff_matrix,
    render_payoff_table,
    resolve,
    sweep_bounty,
    sweep_w,
)
from .consensus import (
    CanaryRecord,
    Chain,
    ChainConfig,
    Epoch,
    EpochKind,
    EraPhase,
    GenesisGrant,
    export_snapshot,
    reorg,
    replay_chain,
    verify_snapshot,
)
from .fawkescoin import ChallengeRecord, ChallengeStatus, RevealMode
from .groups import (
    GroupMode,
    GroupParams,
    GroupPoint,
    PreQuantumSignature,
    address_hash,
    pk_ec,
    prequantum_sign,
    prequantum_verify,
    quantum_invert,
    secure_group,
    toy_group,
)
from .hdwallet import (
    DerivationPath,
    DerivationStep,
    ExtendedSecretKey,
    Seed,
    child_hardened,
    child_nonhardened,
    derive,
    kdf,
    kdf_pq,
    kdf_pre,
)
from .ledger import (
    Address,
    AddrKind,
    Block,
    KeyRegistry,
    Transaction,
    TxKind,
    Utxo,
)
from .lifted_fawkescoin import EpochDecision, LfcCommitment, LfcMempoolMsg, LfcState, extension_decision, split_fee
from .lifting import (
    KeyLiftedSig,
    OwfBackend,
    SeedLiftedSig,
    keylift_sign,
    keylift_verify,
    lifted_backends,
    seedlift_sign,
    seedlift_verify,
)
from .params import FinePolicy, Params
from .rules import RuleViolation
from .scenarios import BUNDLED, load_scenario, run_scenario
from .simulation import ScenarioConfig, Simulation

__version__ = "0.1.0"
