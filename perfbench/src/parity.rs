//! Bit-exact verdict parity: every served probability (and, on a cascade,
//! every `escalated` flag) must equal the in-process `score_codes` result
//! on the same artifact. JSON carries an `f32` score as the shortest
//! round-trip decimal of its exact `f64` widening, so the comparison is on
//! the bits of that `f64`.

use phishinghook::json::{self, Value};
use phishinghook::{CascadeVerdict, PHISHING_THRESHOLD};

/// The verdict the in-process scorer gives one contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub probability: f32,
    /// `Some` on a cascade artifact.
    pub escalated: Option<bool>,
}

impl Expected {
    pub fn flat(probability: f32) -> Self {
        Expected {
            probability,
            escalated: None,
        }
    }

    pub fn cascade(v: &CascadeVerdict) -> Self {
        Expected {
            probability: v.probability,
            escalated: Some(v.escalated),
        }
    }
}

fn same_bits(served: f64, expected: f32) -> bool {
    served.to_bits() == f64::from(expected).to_bits()
}

fn parse(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    json::parse(text).ok_or_else(|| format!("reply is not JSON: {text:.80}"))
}

fn check_one(
    i: usize,
    prob: Option<f64>,
    escalated: Option<bool>,
    phishing: Option<bool>,
    want: &Expected,
) -> Result<(), String> {
    let p = prob.ok_or_else(|| format!("contract {i}: no probability"))?;
    if !same_bits(p, want.probability) {
        return Err(format!(
            "contract {i}: served probability {p:e} != in-process {:e}",
            want.probability
        ));
    }
    if phishing != Some(want.probability >= PHISHING_THRESHOLD) {
        return Err(format!(
            "contract {i}: phishing flag {phishing:?} disagrees"
        ));
    }
    if let Some(e) = want.escalated {
        if escalated != Some(e) {
            return Err(format!(
                "contract {i}: escalated {escalated:?} != in-process {e}"
            ));
        }
    }
    Ok(())
}

/// Checks a `POST /predict` reply body against one expected verdict.
pub fn check_single(body: &[u8], want: &Expected) -> Result<(), String> {
    let v = parse(body)?;
    let flag = |k: &str| match v.get(k) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    };
    check_one(
        0,
        v.get("probability").and_then(Value::as_f64),
        flag("escalated"),
        flag("phishing"),
        want,
    )
}

/// Checks a `POST /predict_batch` reply body against the expected
/// verdicts, in request order.
pub fn check_batch(body: &[u8], want: &[Expected]) -> Result<(), String> {
    let v = parse(body)?;
    let arr = |k: &str| v.get(k).and_then(Value::as_arr).unwrap_or(&[]);
    let (probs, escalated, phishing) = (arr("probabilities"), arr("escalated"), arr("phishing"));
    if probs.len() != want.len() {
        return Err(format!(
            "{} probabilities served for {} contracts",
            probs.len(),
            want.len()
        ));
    }
    let flag = |a: &[Value], i: usize| match a.get(i) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    };
    for (i, w) in want.iter().enumerate() {
        check_one(
            i,
            probs[i].as_f64(),
            flag(escalated, i),
            flag(phishing, i),
            w,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(p: f32, escalated: Option<bool>) -> Vec<u8> {
        let mut fields = vec![("probability".into(), Value::Num(f64::from(p)))];
        if let Some(e) = escalated {
            fields.push(("escalated".into(), Value::Bool(e)));
        }
        fields.push(("phishing".into(), Value::Bool(p >= PHISHING_THRESHOLD)));
        Value::Obj(fields).render().into_bytes()
    }

    #[test]
    fn exact_replies_pass() {
        for p in [0.0f32, 0.123_456_79, 0.5, 0.999_999_9, 1.0] {
            assert_eq!(check_single(&single(p, None), &Expected::flat(p)), Ok(()));
        }
        let want = Expected {
            probability: 0.3,
            escalated: Some(true),
        };
        assert_eq!(check_single(&single(0.3, Some(true)), &want), Ok(()));
    }

    #[test]
    fn a_single_flipped_bit_is_rejected() {
        for p in [0.123_456_79f32, 0.5, 0.75, 1.0e-7] {
            for bit in [0, 1, 12, 22] {
                let flipped = f32::from_bits(p.to_bits() ^ (1 << bit));
                let err = check_single(&single(flipped, None), &Expected::flat(p));
                assert!(err.is_err(), "bit {bit} of {p} slipped through");
            }
        }
    }

    #[test]
    fn escalation_and_batch_mismatches_are_rejected() {
        let want = Expected {
            probability: 0.3,
            escalated: Some(true),
        };
        assert!(check_single(&single(0.3, Some(false)), &want).is_err());
        assert!(check_single(&single(0.3, None), &want).is_err());

        let probs = [0.25f32, 0.75];
        let body = |ps: &[f32]| {
            Value::Obj(vec![
                (
                    "probabilities".into(),
                    Value::Arr(ps.iter().map(|&p| Value::Num(f64::from(p))).collect()),
                ),
                (
                    "phishing".into(),
                    Value::Arr(
                        ps.iter()
                            .map(|&p| Value::Bool(p >= PHISHING_THRESHOLD))
                            .collect(),
                    ),
                ),
            ])
            .render()
            .into_bytes()
        };
        let want: Vec<_> = probs.iter().map(|&p| Expected::flat(p)).collect();
        assert_eq!(check_batch(&body(&probs), &want), Ok(()));
        let flipped = [probs[0], f32::from_bits(probs[1].to_bits() ^ 1)];
        assert!(check_batch(&body(&flipped), &want).is_err());
        assert!(check_batch(&body(&probs[..1]), &want).is_err());
    }
}
