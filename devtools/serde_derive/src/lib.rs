//! Offline stand-in for the `serde_derive` proc-macro crate.
//!
//! The build environment has no network access, so — like the `proptest`
//! and `criterion` shims under `devtools/` — this crate re-implements the
//! subset of `#[derive(Serialize, Deserialize)]` the workspace uses,
//! against the [`serde` shim](../serde)'s streaming JSON codec: the
//! generated `serialize` writes each field straight into a
//! `serde::json::Writer`, and the generated `deserialize` reads the
//! object's keys from a `serde::json::Reader`, matching each against the
//! declared field names, keeping the first value of a repeated key and
//! skipping unknown ones. Supported shapes:
//!
//! * structs with named fields (`Option<T>` fields are skipped when `None`
//!   on serialize and default to `None` when missing or `null` on
//!   deserialize — the wire-type convention the protocol goldens pin);
//! * enums with unit and named-field variants, encoded externally tagged
//!   exactly like real serde (`"variant"` / `{"variant": {fields}}`);
//! * the container attributes `#[serde(rename_all = "snake_case")]` and
//!   `#[serde(deny_unknown_fields)]` (on an enum: the fields of every
//!   named-field variant).
//!
//! Generics, tuple variants, and field-level attributes are not supported
//! and produce a compile error naming the limitation.
//!
//! The implementation parses the item's token stream by hand (no `syn` /
//! `quote` — those live on crates.io too) and emits the impl as source
//! text.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (shim):
/// `fn serialize(&self, &mut serde::json::Writer)`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

/// Derives `serde::Deserialize` (shim):
/// `fn deserialize(&mut serde::json::Reader) -> Result<Self, serde::Error>`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    match parse_item(input) {
        Ok(item) => {
            let code = match which {
                Which::Serialize => gen_serialize(&item),
                Which::Deserialize => gen_deserialize(&item),
            };
            code.parse().expect("generated impl parses")
        }
        Err(msg) => format!("::core::compile_error!({msg:?});")
            .parse()
            .expect("compile_error parses"),
    }
}

// ---------------------------------------------------------------------------
// Item model and parser

struct Field {
    name: String,
    /// The declared type, as source text.
    ty: String,
    /// Whether the declared type's head is `Option`.
    optional: bool,
}

enum Shape {
    Struct(Vec<Field>),
    Enum(Vec<(String, Option<Vec<Field>>)>),
}

struct Item {
    name: String,
    snake_variants: bool,
    deny_unknown: bool,
    shape: Shape,
}

/// Skips one `#[...]` attribute, returning its text without spaces.
fn eat_attribute(iter: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> String {
    iter.next(); // '#'
    let Some(TokenTree::Group(g)) = iter.next() else {
        return String::new();
    };
    g.stream().to_string().replace(' ', "")
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut iter = input.into_iter().peekable();
    let mut snake_variants = false;
    let mut deny_unknown = false;
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                let text = eat_attribute(&mut iter);
                if text.starts_with("serde(") {
                    snake_variants |= text.contains("rename_all=\"snake_case\"");
                    deny_unknown |= text.contains("deny_unknown_fields");
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                // `pub(crate)` and friends carry a paren group.
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next();
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive: `{name}` is generic (unsupported)"
        ));
    }
    let body = match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => {
            return Err(format!(
                "serde shim derive: `{name}` must have a braced body (tuple/unit items unsupported)"
            ))
        }
    };
    let shape = match kind.as_str() {
        "struct" => Shape::Struct(parse_fields(body)?),
        "enum" => Shape::Enum(parse_variants(body)?),
        other => return Err(format!("expected `struct` or `enum`, got `{other}`")),
    };
    Ok(Item {
        name,
        snake_variants,
        deny_unknown,
        shape,
    })
}

fn parse_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        // Attributes and visibility before the field name.
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    eat_attribute(&mut iter);
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    iter.next();
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            iter.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(tree) = iter.next() else { break };
        let TokenTree::Ident(field_name) = tree else {
            return Err(format!("expected field name, got {tree:?}"));
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field name, got {other:?}")),
        }
        // The type: consume until a comma at angle-bracket depth 0, noting
        // the head identifier (to spot `Option`).
        let mut depth = 0i32;
        let mut head: Option<String> = None;
        let mut ty = Vec::new();
        for tree in iter.by_ref() {
            match &tree {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                TokenTree::Ident(id) => {
                    if head.is_none() {
                        head = Some(id.to_string());
                    } else if depth == 0 {
                        // e.g. `std :: time :: Duration` — keep updating so the
                        // head reflects the path's last segment at depth 0...
                        head = Some(id.to_string());
                    }
                }
                _ => {}
            }
            // `Option` is always the path head at depth 0 *before* the `<`.
            if depth > 0 && head.is_none() {
                head = Some(String::new());
            }
            ty.push(tree);
        }
        let optional = head.as_deref() == Some("Option");
        fields.push(Field {
            name: field_name.to_string(),
            ty: ty.into_iter().collect::<TokenStream>().to_string(),
            optional,
        });
    }
    Ok(fields)
}

/// A parsed enum variant: its name plus named fields (`None` for unit
/// variants).
type Variant = (String, Option<Vec<Field>>);

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            eat_attribute(&mut iter);
        }
        let Some(tree) = iter.next() else { break };
        let TokenTree::Ident(vname) = tree else {
            return Err(format!("expected variant name, got {tree:?}"));
        };
        let fields = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let stream = g.stream();
                iter.next();
                Some(parse_fields(stream)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(format!(
                    "serde shim derive: tuple variant `{vname}` unsupported (use named fields)"
                ));
            }
            _ => None,
        };
        if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            iter.next();
        }
        variants.push((vname.to_string(), fields));
    }
    Ok(variants)
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Code generation
//
// The generated code drives the shim's `json::Writer` and `json::Reader`
// directly; see `serde::json` for their contracts.

/// Statements writing the object of `fields`, each read from
/// `prefix<name>`, into `__w`.
fn ser_object(fields: &[Field], prefix: &str) -> String {
    let mut out = String::from("__w.begin_object();\n");
    for f in fields {
        let (name, access) = (&f.name, format!("{prefix}{}", f.name));
        if f.optional {
            out.push_str(&format!(
                "if let ::core::option::Option::Some(__v) = &{access} {{ \
                 __w.field(\"{name}\", __v); }}\n"
            ));
        } else {
            out.push_str(&format!("__w.field(\"{name}\", &{access});\n"));
        }
    }
    out.push_str("__w.end_object();\n");
    out
}

/// A block reading the object of `fields` from `__r` and evaluating to
/// `Result<ty, serde::Error>`, `ty` being the struct or the enum variant
/// path. A repeated key keeps its first value; errors name `ty`.
fn de_object(fields: &[Field], ty: &str, deny_unknown: bool) -> String {
    let mut out = format!("{{\n__r.begin_object(\"{ty}\")?;\n");
    for (i, f) in fields.iter().enumerate() {
        out.push_str(&format!(
            "let mut __f{i}: ::core::option::Option<{}> = ::core::option::Option::None;\n",
            f.ty
        ));
    }
    out.push_str(
        "while let ::core::option::Option::Some(__key) = __r.next_key()? {\nmatch &*__key {\n",
    );
    for (i, f) in fields.iter().enumerate() {
        let name = &f.name;
        out.push_str(&format!(
            "\"{name}\" => __r.field(&mut __f{i}, \"{name}\", \"{ty}\")?,\n"
        ));
    }
    if deny_unknown {
        out.push_str(&format!(
            "__other => return ::core::result::Result::Err(\
             ::serde::Error::unknown_field(__other, \"{ty}\")),\n"
        ));
    } else {
        out.push_str("_ => __r.skip_value()?,\n");
    }
    out.push_str(&format!("}}\n}}\n::core::result::Result::Ok({ty} {{\n"));
    for (i, f) in fields.iter().enumerate() {
        let name = &f.name;
        if f.optional {
            out.push_str(&format!(
                "{name}: __f{i}.unwrap_or(::core::option::Option::None),\n"
            ));
        } else {
            out.push_str(&format!(
                "{name}: __f{i}.ok_or_else(|| ::serde::Error::missing_field(\"{name}\", \"{ty}\"))?,\n"
            ));
        }
    }
    out.push_str("})\n}");
    out
}

/// The wire name of variant `vname`.
fn wire_name(item: &Item, vname: &str) -> String {
    if item.snake_variants {
        snake_case(vname)
    } else {
        vname.to_owned()
    }
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => ser_object(fields, "self."),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (vname, fields) in variants {
                let wire = wire_name(item, vname);
                match fields {
                    None => arms.push_str(&format!("{name}::{vname} => __w.str(\"{wire}\"),\n")),
                    Some(fields) => {
                        let binders: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\n\
                             __w.begin_object();\n__w.key(\"{wire}\");\n{}__w.end_object();\n}}\n",
                            binders.join(", "),
                            ser_object(fields, "")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __w: &mut ::serde::json::Writer) {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => de_object(fields, name, item.deny_unknown),
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (vname, fields) in variants {
                let wire = wire_name(item, vname);
                let ty = format!("{name}::{vname}");
                match fields {
                    None => unit_arms.push_str(&format!(
                        "\"{wire}\" => ::core::result::Result::Ok({ty}),\n"
                    )),
                    Some(fields) => tagged_arms.push_str(&format!(
                        "\"{wire}\" => {}?,\n",
                        de_object(fields, &ty, item.deny_unknown)
                    )),
                }
            }
            // An enum without named-field variants has no tagged form.
            let tagged = if tagged_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "::core::option::Option::Some(b'{{') => {{\n\
                     __r.begin_object(\"{name}\")?;\n\
                     let ::core::option::Option::Some(__tag) = __r.next_key()? else {{\n\
                     return ::core::result::Result::Err(::serde::Error::not_an_enum(\"{name}\"));\n}};\n\
                     let __value = match &*__tag {{\n{tagged_arms}\
                     __other => return ::core::result::Result::Err(\
                     ::serde::Error::unknown_variant(__other, \"{name}\")),\n}};\n\
                     if __r.next_key()?.is_some() {{\n\
                     return ::core::result::Result::Err(::serde::Error::not_an_enum(\"{name}\"));\n}}\n\
                     ::core::result::Result::Ok(__value)\n}}\n"
                )
            };
            format!(
                "match __r.peek() {{\n\
                 ::core::option::Option::Some(b'\"') => match &*__r.str()? {{\n{unit_arms}\
                 __other => ::core::result::Result::Err(\
                 ::serde::Error::unknown_variant(__other, \"{name}\")),\n}},\n\
                 {tagged}\
                 _ => ::core::result::Result::Err(::serde::Error::not_an_enum(\"{name}\")),\n}}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__r: &mut ::serde::json::Reader<'_>) \
         -> ::core::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}\n"
    )
}
