//! The attack × configuration matrix: the paper's claim set as an
//! executable table (experiment E1). The expected grid is the
//! catalogue's verdict columns ([`crate::Attack::expected`]).

use crate::{all_attacks, AttackReport};
use kerberos::ProtocolConfig;

/// Runs every attack against every preset.
pub fn run_matrix(seed: u64) -> Vec<AttackReport> {
    let mut out = Vec::new();
    for config in ProtocolConfig::presets() {
        for attack in all_attacks() {
            out.push(attack.run(&config, seed));
        }
    }
    out
}

/// Looks up the paper's expected outcome for (attack id, preset name).
pub fn expected(id: &str, config: &str) -> Option<bool> {
    all_attacks().iter().find(|a| a.id == id)?.expected(config)
}

/// Renders the matrix as an aligned text table (rows = attacks, columns
/// = configurations; `BREACH` / `safe`).
pub fn render_table(reports: &[AttackReport]) -> String {
    let mut configs: Vec<&str> = Vec::new();
    let mut attacks: Vec<(&str, &str)> = Vec::new();
    for r in reports {
        if !configs.contains(&r.config) {
            configs.push(r.config);
        }
        if !attacks.iter().any(|(id, _)| *id == r.id) {
            attacks.push((r.id, r.name));
        }
    }

    let mut s = String::new();
    s.push_str(&format!("{:<4} {:<42}", "id", "attack"));
    for c in &configs {
        s.push_str(&format!(" {c:>10}"));
    }
    s.push('\n');
    s.push_str(&"-".repeat(47 + 11 * configs.len()));
    s.push('\n');
    for (id, name) in &attacks {
        s.push_str(&format!("{id:<4} {name:<42}"));
        for c in &configs {
            let cell = reports
                .iter()
                .find(|r| r.id == *id && r.config == *c)
                .map(|r| if r.succeeded { "BREACH" } else { "safe" })
                .unwrap_or("?");
            s.push_str(&format!(" {cell:>10}"));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_grid_is_complete() {
        // 14 attacks, A1..A14 in paper order, x 3 presets.
        let ids: Vec<&str> = all_attacks().iter().map(|a| a.id).collect();
        let paper_order: Vec<String> = (1..=14).map(|n| format!("A{n}")).collect();
        assert_eq!(ids, paper_order);
        for id in ids {
            for config in ProtocolConfig::presets() {
                assert!(
                    expected(id, config.name).is_some(),
                    "missing expectation for {id}/{}",
                    config.name
                );
            }
        }
    }

    #[test]
    fn hardened_blocks_everything() {
        for attack in all_attacks() {
            let verdict = attack.expected("hardened");
            assert_eq!(verdict, Some(false), "{} expected to breach hardened?", attack.id);
        }
    }

    #[test]
    fn render_produces_all_rows() {
        let reports = vec![
            AttackReport { id: "A1", name: "x", config: "v4", succeeded: true, evidence: String::new() },
            AttackReport { id: "A1", name: "x", config: "hardened", succeeded: false, evidence: String::new() },
        ];
        let t = render_table(&reports);
        assert!(t.contains("BREACH"));
        assert!(t.contains("safe"));
        assert!(t.contains("A1"));
    }
}
