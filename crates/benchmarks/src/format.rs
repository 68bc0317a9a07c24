//! A simple ISPD'09-like text format for clock-network instances.
//!
//! ```text
//! # contango clock-network instance
//! name ispd09f11
//! die 0 0 11000 11000
//! source 0 5500
//! cap_limit 120000000
//! sink <id> <x> <y> <cap>
//! obstacle <x1> <y1> <x2> <y2>
//! ```

use crate::error::ParseError;
use contango_core::instance::ClockNetInstance;
use contango_geom::{Point, Rect};

/// Serializes an instance to the text format.
pub fn write_instance(instance: &ClockNetInstance) -> String {
    let mut out = String::new();
    out.push_str("# contango clock-network instance\n");
    out.push_str(&format!("name {}\n", instance.name));
    out.push_str(&format!(
        "die {} {} {} {}\n",
        instance.die.lo.x, instance.die.lo.y, instance.die.hi.x, instance.die.hi.y
    ));
    out.push_str(&format!(
        "source {} {}\n",
        instance.source.x, instance.source.y
    ));
    out.push_str(&format!("cap_limit {}\n", instance.cap_limit));
    for s in &instance.sinks {
        out.push_str(&format!(
            "sink {} {} {} {}\n",
            s.id, s.location.x, s.location.y, s.cap
        ));
    }
    for o in instance.obstacles.iter() {
        out.push_str(&format!(
            "obstacle {} {} {} {}\n",
            o.rect.lo.x, o.rect.lo.y, o.rect.hi.x, o.rect.hi.y
        ));
    }
    out
}

/// Parses an instance from the text format.
///
/// # Errors
///
/// Returns a message naming the offending line for any malformed input,
/// including a number that is not finite, and propagates
/// instance-validation errors.
pub fn parse_instance(text: &str) -> Result<ClockNetInstance, ParseError> {
    let mut name = String::from("unnamed");
    let mut die = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut source: Option<Point> = None;
    let mut cap_limit = 1.0e9;
    let mut sinks: Vec<(usize, Point, f64)> = Vec::new();
    let mut obstacles: Vec<Rect> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        // Every number must be finite: `Rect::new` orders corners with
        // `f64::min`/`max`, which would drop a NaN bound without a trace.
        let parse = |s: &str| -> Result<f64, ParseError> {
            match s.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                Ok(_) => Err(ParseError::syntax(
                    lineno + 1,
                    format!("number `{s}` is not finite"),
                )),
                Err(_) => Err(ParseError::syntax(
                    lineno + 1,
                    format!("invalid number `{s}`"),
                )),
            }
        };
        match fields[0] {
            "name" if fields.len() >= 2 => name = fields[1].to_string(),
            "die" if fields.len() == 5 => {
                die = Rect::new(
                    parse(fields[1])?,
                    parse(fields[2])?,
                    parse(fields[3])?,
                    parse(fields[4])?,
                );
            }
            "source" if fields.len() == 3 => {
                source = Some(Point::new(parse(fields[1])?, parse(fields[2])?));
            }
            "cap_limit" if fields.len() == 2 => cap_limit = parse(fields[1])?,
            "sink" if fields.len() == 5 => {
                let id = fields[1]
                    .parse::<usize>()
                    .map_err(|_| ParseError::syntax(lineno + 1, "invalid sink id"))?;
                sinks.push((
                    id,
                    Point::new(parse(fields[2])?, parse(fields[3])?),
                    parse(fields[4])?,
                ));
            }
            "obstacle" if fields.len() == 5 => {
                obstacles.push(Rect::new(
                    parse(fields[1])?,
                    parse(fields[2])?,
                    parse(fields[3])?,
                    parse(fields[4])?,
                ));
            }
            other => {
                return Err(ParseError::syntax(
                    lineno + 1,
                    format!("unrecognized record `{other}`"),
                ))
            }
        }
    }

    sinks.sort_by_key(|&(id, _, _)| id);
    let mut builder = ClockNetInstance::builder(&name)
        .die(die.lo.x, die.lo.y, die.hi.x, die.hi.y)
        .cap_limit(cap_limit);
    if let Some(src) = source {
        builder = builder.source(src);
    }
    for (expected, &(id, loc, cap)) in sinks.iter().enumerate() {
        if id != expected {
            return Err(ParseError::NonContiguousSinkIds { missing: expected });
        }
        builder = builder.sink(loc, cap);
    }
    for r in obstacles {
        builder = builder.obstacle(r);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{
        ispd09_suite, make_instance, stress_instance, ti_instance, StressLayout,
    };
    use contango_core::error::InstanceError;

    /// `.cns` is the one instance file format, and what `run --input` reads
    /// must be the instance that was written: a reloaded instance equals
    /// the written one bit for bit, or a saved benchmark would synthesize
    /// a different tree than the one it was saved from.
    #[test]
    fn round_trip_preserves_instances() {
        let mut instances: Vec<ClockNetInstance> =
            ispd09_suite().iter().map(make_instance).collect();
        instances.push(ti_instance(300, 7));
        instances.push(stress_instance(500, 3, StressLayout::Clustered));
        for inst in instances {
            let back = parse_instance(&write_instance(&inst)).expect("parses");
            assert_eq!(back, inst);
        }
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        // Every record's numbers, the source's included, must be finite;
        // line 3 holds the bad record.
        for records in [
            "source nan 500\nsink 0 200 200 5",
            "source 0 inf\nsink 0 200 200 5",
            "sink 0 200 200 nan",
            "sink 0 200 200 inf",
            "cap_limit nan\nsink 0 200 200 5",
            "cap_limit inf\nsink 0 200 200 5",
            "obstacle nan 0 500 500\nsink 0 200 200 5",
            "obstacle 0 0 inf 5\nsink 0 200 200 5",
        ] {
            let text = format!("name t\ndie 0 0 1000 1000\n{records}\n");
            match parse_instance(&text) {
                Err(ParseError::Syntax { line: 3, message }) => {
                    assert!(message.contains("not finite"), "{records}: {message}")
                }
                other => panic!("{records}: {other:?}"),
            }
        }
        let err = parse_instance("name t\ndie 0 0 inf inf\nsink 0 200 200 5\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn sources_off_the_die_are_rejected() {
        for source in ["1e12 500", "-1 500"] {
            let text = format!("name t\ndie 0 0 1000 1000\nsource {source}\nsink 0 200 200 5\n");
            assert_eq!(
                parse_instance(&text).unwrap_err(),
                ParseError::Instance(InstanceError::SourceOutsideDie),
                "{source}"
            );
        }
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let err = parse_instance("name x\nbogus 1 2 3\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_instance("sink 0 1 2 notanumber\n").unwrap_err();
        assert!(err.to_string().contains("invalid number"), "{err}");
    }

    #[test]
    fn missing_sink_ids_are_rejected() {
        let text = "name t\ndie 0 0 10 10\nsink 0 1 1 5\nsink 2 2 2 5\ncap_limit 100\n";
        let err = parse_instance(text).unwrap_err();
        assert_eq!(err, ParseError::NonContiguousSinkIds { missing: 1 });
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# comment\n\nname t\ndie 0 0 10 10\nsink 0 5 5 2\ncap_limit 100\n";
        let inst = parse_instance(text).expect("parses");
        assert_eq!(inst.sink_count(), 1);
    }
}
