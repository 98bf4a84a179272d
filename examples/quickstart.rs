//! Quickstart: verify a MicroPython class hierarchy in a few lines.
//!
//! Run with `cargo run --example quickstart`.

use shelley::core::spec_diagram;
use shelley::Checker;

const SOURCE: &str = r#"
@sys
class Led:
    @op_initial
    def on(self):
        return ["off"]

    @op_final
    def off(self):
        return ["on"]

@claim("G (!led.on | F led.off)")
@sys(["led"])
class Blinker:
    def __init__(self):
        self.led = Led()

    @op_initial_final
    def blink(self):
        for i in range(3):
            self.led.on()
            self.led.off()
        return []
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One call runs the full pipeline: parse → extract → verify.
    let checked = Checker::new().check_source(SOURCE)?;

    println!("== verification ==");
    if checked.report.passed() {
        println!("OK: {} system(s) verified\n", checked.systems.len());
    } else {
        println!("{}", checked.report.render(None));
    }

    // The inferred model of the base class, as a DOT diagram.
    let led = checked.systems.get("Led").expect("Led is a @sys class");
    println!("== Led operation diagram (Graphviz) ==");
    println!("{}", spec_diagram(&led.spec));

    // The extracted behavior of the composite's operation.
    let blinker = checked.systems.get("Blinker").expect("Blinker exists");
    let info = blinker.composite().expect("Blinker is composite");
    let lowered = info.methods.get("blink").expect("blink is an operation");
    let behavior = shelley::ir::infer(&lowered.program);
    println!("== inferred behavior of Blinker.blink ==");
    println!("{}", behavior.display(&info.alphabet));

    Ok(())
}
