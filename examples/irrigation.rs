//! The paper's industrial use case: a battery-operated wireless controller
//! that switches water valves according to a scheduled irrigation plan.
//!
//! This example builds the *corrected* sector (the paper's `BadSector`
//! opens the valves across two operations and fails verification; here each
//! sector operation leaves its valves closed), verifies the whole
//! three-level hierarchy (Valve → Sector → Controller), and then drives a
//! small in-Rust valve simulation with traces sampled from the verified
//! integration model — demonstrating that every sampled schedule respects
//! the physical valve protocol.
//!
//! Run with `cargo run --example irrigation`.

use shelley::core::{build_integration, Checker};
use shelley::regular::ops::strip_markers;
use shelley::regular::Dfa;
use std::collections::HashMap;

const SOURCE: &str = r#"
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.clean_pin = Pin(28, OUT)
        self.status = Pin(29, IN)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean_pin.on()
        return ["test"]

@claim("(!a.open) W a.test")
@claim("(!b.open) W b.test")
@sys(["a", "b"])
class Sector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def water(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                match self.b.test():
                    case ["open"]:
                        self.b.open()
                        self.a.close()
                        self.b.close()
                        return ["maintain"]
                    case ["clean"]:
                        self.b.clean()
                        self.a.close()
                        return ["maintain"]
            case ["clean"]:
                self.a.clean()
                return ["maintain"]

    @op_final
    def maintain(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#;

/// A simulated electromechanical valve enforcing the physical protocol.
#[derive(Debug, Default)]
struct SimValve {
    tested: bool,
    open: bool,
    cycles: u32,
    faults: u32,
}

impl SimValve {
    fn apply(&mut self, op: &str) -> Result<(), String> {
        match op {
            "test" => {
                self.tested = true;
                Ok(())
            }
            "open" => {
                if !self.tested {
                    return Err("opened without testing".into());
                }
                if self.open {
                    return Err("opened twice".into());
                }
                self.open = true;
                Ok(())
            }
            "close" => {
                if !self.open {
                    return Err("closed while not open".into());
                }
                self.open = false;
                self.tested = false;
                self.cycles += 1;
                Ok(())
            }
            "clean" => {
                if !self.tested {
                    return Err("cleaned without testing".into());
                }
                self.tested = false;
                self.faults += 1;
                Ok(())
            }
            other => Err(format!("unknown valve operation `{other}`")),
        }
    }

    fn is_safe_at_rest(&self) -> bool {
        !self.open
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let checked = Checker::new().check_source(SOURCE)?;
    println!("== verification ==");
    if !checked.report.passed() {
        println!("{}", checked.report.render(None));
        return Err("irrigation system failed verification".into());
    }
    println!(
        "OK: {} systems verified, {} warnings\n",
        checked.systems.len(),
        checked.report.diagnostics.warnings().count()
    );

    // Sample complete schedules from the verified integration model and
    // replay them against the physical simulation.
    let sector = checked
        .systems
        .get("Sector")
        .expect("Sector is a @sys class");
    let integration = build_integration(sector);
    let alphabet = integration.nfa.alphabet().clone();
    let dfa = Dfa::from_nfa(&integration.nfa);
    let schedules = dfa.enumerate_words(12, 40);
    println!(
        "== replaying {} verified schedules on the valve simulator ==",
        schedules.len()
    );

    let mut total_events = 0usize;
    for schedule in &schedules {
        let mut valves: HashMap<&str, SimValve> = HashMap::new();
        valves.insert("a", SimValve::default());
        valves.insert("b", SimValve::default());
        let events = strip_markers(schedule, &integration.markers);
        for event in &events {
            let name = alphabet.name(*event);
            let (field, op) = name.split_once('.').expect("qualified event");
            valves
                .get_mut(field)
                .expect("known valve")
                .apply(op)
                .map_err(|e| format!("schedule {name}: {e}"))?;
            total_events += 1;
        }
        for (field, valve) in &valves {
            assert!(
                valve.is_safe_at_rest(),
                "valve {field} left open after a complete schedule!"
            );
        }
    }
    println!("replayed {total_events} valve events — no valve was ever left open\n");

    // Show the longest schedule for flavor.
    if let Some(longest) = schedules.iter().max_by_key(|s| s.len()) {
        println!("longest sampled schedule:");
        println!("  {}", alphabet.render_word(longest));
    }
    Ok(())
}
