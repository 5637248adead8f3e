//! # attacks
//!
//! Executable implementations of every attack in Bellovin & Merritt
//! (USENIX Winter 1991). Each attack module stages one attack (two for
//! [`pw_guess`]) against an arbitrary [`kerberos::ProtocolConfig`] and
//! returns an [`Outcome`]: whether the attacker won, with concrete
//! evidence. [`all_attacks`] is the catalogue that names each attack
//! and records the paper's verdict on it under the three presets;
//! [`matrix`] runs the full attack × configuration grid — the paper's
//! central claim set as an executable table.

pub mod blind_spoof;
pub mod chaos;
pub mod chosen_plaintext;
pub mod cross_stream;
pub mod cut_paste;
pub mod env;
pub mod hijack;
pub mod host_theft;
pub mod login_spoof;
pub mod matrix;
pub mod overload;
pub mod pcbc_swap;
pub mod pw_guess;
pub mod replay;
pub mod reuse_skey;
pub mod stealth;
pub mod time_spoof;
pub mod type_confusion;
pub mod workload;

use kerberos::ProtocolConfig;

/// What one attack script observed (the attacker's scorecard).
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Did the attacker win?
    pub succeeded: bool,
    /// What happened, concretely.
    pub evidence: String,
}

impl Outcome {
    /// The attacker won.
    pub fn breach(evidence: impl Into<String>) -> Self {
        Outcome { succeeded: true, evidence: evidence.into() }
    }

    /// The attack was stopped, or never got going.
    pub fn safe(evidence: impl Into<String>) -> Self {
        Outcome { succeeded: false, evidence: evidence.into() }
    }
}

/// The outcome of one catalogued attack run, labelled with its cell.
#[derive(Clone, Debug)]
pub struct AttackReport {
    /// Attack id, e.g. `"A1"`.
    pub id: &'static str,
    /// Human-readable attack name.
    pub name: &'static str,
    /// The configuration attacked.
    pub config: &'static str,
    /// Did the attacker win?
    pub succeeded: bool,
    /// What happened, concretely.
    pub evidence: String,
}

/// The presets the catalogue records verdicts for, in
/// [`ProtocolConfig::presets`] order.
const PRESETS: [&str; 3] = ["v4", "v5-draft3", "hardened"];

/// One row of the E1 catalogue: a paper attack, the paper's verdict on
/// it under each preset, and the script that stages it.
pub struct Attack {
    /// Stable id (`"A1"`..`"A14"`).
    pub id: &'static str,
    /// Short name.
    pub name: &'static str,
    /// Does the attack succeed, per the paper's analysis? Under `v4`,
    /// `v5-draft3` and `hardened`, in that order.
    breaches: [bool; 3],
    run: fn(&ProtocolConfig, u64) -> Outcome,
}

impl Attack {
    /// Runs the attack against a fresh deployment under `config`.
    pub fn run(&self, config: &ProtocolConfig, seed: u64) -> AttackReport {
        let Outcome { succeeded, evidence } = (self.run)(config, seed);
        AttackReport { id: self.id, name: self.name, config: config.name, succeeded, evidence }
    }

    /// The paper's verdict under the preset named `preset`; `None` for
    /// any other configuration name.
    pub fn expected(&self, preset: &str) -> Option<bool> {
        let column = PRESETS.iter().position(|p| *p == preset)?;
        Some(self.breaches[column])
    }
}

/// All fourteen attacks, in paper order.
pub fn all_attacks() -> &'static [Attack] {
    &CATALOGUE
}

static CATALOGUE: [Attack; 14] = [
    Attack {
        id: "A1",
        name: "stolen live-authenticator replay",
        breaches: [true, true, false],
        run: replay::run,
    },
    Attack {
        id: "A2",
        name: "Morris blind spoof + stolen authenticator",
        breaches: [true, true, false],
        run: blind_spoof::run,
    },
    Attack {
        id: "A3",
        name: "time-service spoof + stale authenticator",
        breaches: [true, true, false],
        run: time_spoof::run,
    },
    Attack {
        id: "A4",
        name: "offline password guessing (passive)",
        breaches: [true, true, false],
        run: pw_guess::run_passive,
    },
    Attack {
        id: "A5",
        name: "ticket harvest without eavesdropping",
        breaches: [true, true, false],
        run: pw_guess::run_harvest,
    },
    Attack {
        id: "A6",
        name: "Trojan login spoofing",
        breaches: [true, true, false],
        run: login_spoof::run,
    },
    // "The simple attack above does not work against Kerberos Version
    // 4, in which ... the leading length(DATA) field disrupts the
    // prefix-based attack."
    Attack {
        id: "A7",
        name: "chosen-plaintext KRB_PRIV splice",
        breaches: [false, true, false],
        run: chosen_plaintext::run,
    },
    Attack {
        id: "A8",
        name: "ciphertext block-swap modification",
        breaches: [true, true, false],
        run: pcbc_swap::run,
    },
    // A9/A10 target Draft-3 options V4 did not have.
    Attack {
        id: "A9",
        name: "ENC-TKT-IN-SKEY CRC cut-and-paste",
        breaches: [false, true, false],
        run: cut_paste::run,
    },
    Attack {
        id: "A10",
        name: "REUSE-SKEY service redirect",
        breaches: [false, true, false],
        run: reuse_skey::run,
    },
    // A11 targets the untyped encoding Draft 3 already fixed via ASN.1.
    Attack {
        id: "A11",
        name: "ticket/authenticator type confusion",
        breaches: [true, false, false],
        run: type_confusion::run,
    },
    Attack {
        id: "A12",
        name: "credential-cache theft (/tmp on NFS)",
        breaches: [true, true, false],
        run: host_theft::run,
    },
    Attack {
        id: "A13",
        name: "cross-stream replay between sessions",
        breaches: [true, true, false],
        run: cross_stream::run,
    },
    // A14 needs unprotected post-auth data; Draft 3's KRB_PRIV already
    // prevents the trivial take-over (the session-level replays are
    // A7/A13's business).
    Attack {
        id: "A14",
        name: "post-authentication hijack",
        breaches: [true, false, false],
        run: hijack::run,
    },
];
