//! Offline stand-in for the `serde_derive` proc-macro crate.
//!
//! The build environment has no network access, so — like the `proptest`
//! and `criterion` shims under `devtools/` — this crate re-implements the
//! subset of `#[derive(Serialize, Deserialize)]` the workspace uses,
//! against the [`serde` shim](../serde)'s `Value` data model:
//!
//! * structs with named fields (`Option<T>` fields are skipped when `None`
//!   on serialize and default to `None` when missing on deserialize — the
//!   wire-type convention the protocol goldens pin);
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

/// Derives `serde::Serialize` (shim): `fn serialize(&self) -> serde::Value`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

/// Derives `serde::Deserialize` (shim):
/// `fn deserialize(&serde::Value) -> Result<Self, serde::Error>`.
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
        // The type: consume until a comma at angle-bracket depth 0. Only the
        // head identifier matters (to spot `Option`).
        let mut depth = 0i32;
        let mut head: Option<String> = None;
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
        }
        let optional = head.as_deref() == Some("Option");
        fields.push(Field {
            name: field_name.to_string(),
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

/// `fields.push(...)` statements serializing `prefix<name>` into `__fields`.
fn ser_fields(fields: &[Field], prefix: &str) -> String {
    let mut out = String::new();
    for f in fields {
        let access = format!("{prefix}{}", f.name);
        if f.optional {
            out.push_str(&format!(
                "if let ::core::option::Option::Some(__v) = &{access} {{ \
                 __fields.push((\"{}\".to_string(), ::serde::Serialize::serialize(__v))); }}\n",
                f.name
            ));
        } else {
            out.push_str(&format!(
                "__fields.push((\"{}\".to_string(), ::serde::Serialize::serialize(&{access})));\n",
                f.name
            ));
        }
    }
    out
}

/// With `deny_unknown`, a statement rejecting `__map` keys that name none
/// of `fields`; otherwise nothing.
fn deny_unknown_fields(fields: &[Field], ty: &str, deny_unknown: bool) -> String {
    if !deny_unknown {
        return String::new();
    }
    let names: Vec<String> = fields.iter().map(|f| format!("{:?}", f.name)).collect();
    format!(
        "::serde::__deny_unknown(__map, &[{}], \"{ty}\")?;\n",
        names.join(", ")
    )
}

/// `name: ...?` initializers deserializing each field from `__map`.
fn de_fields(fields: &[Field], ty: &str) -> String {
    let mut out = String::new();
    for f in fields {
        let helper = if f.optional { "__opt_field" } else { "__field" };
        out.push_str(&format!(
            "{}: ::serde::{helper}(__map, \"{}\", \"{ty}\")?,\n",
            f.name, f.name
        ));
    }
    out
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => format!(
            "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
             ::std::vec::Vec::new();\n{}::serde::Value::Map(__fields)",
            ser_fields(fields, "self.")
        ),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (vname, fields) in variants {
                let wire = if item.snake_variants {
                    snake_case(vname)
                } else {
                    vname.clone()
                };
                match fields {
                    None => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Value::Str(\"{wire}\".to_string()),\n"
                    )),
                    Some(fields) => {
                        let binders: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\n\
                             let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                             ::std::vec::Vec::new();\n{}\
                             ::serde::Value::Map(vec![(\"{wire}\".to_string(), ::serde::Value::Map(__fields))])\n}}\n",
                            binders.join(", "),
                            ser_fields(fields, "")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => format!(
            "let __map = ::serde::__as_map(__value, \"{name}\")?;\n{}\
             ::core::result::Result::Ok({name} {{\n{}}})",
            deny_unknown_fields(fields, name, item.deny_unknown),
            de_fields(fields, name)
        ),
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (vname, fields) in variants {
                let wire = if item.snake_variants {
                    snake_case(vname)
                } else {
                    vname.clone()
                };
                match fields {
                    None => unit_arms.push_str(&format!(
                        "\"{wire}\" => ::core::result::Result::Ok({name}::{vname}),\n"
                    )),
                    Some(fields) => {
                        let ty = format!("{name}::{vname}");
                        tagged_arms.push_str(&format!(
                            "\"{wire}\" => {{\n\
                             let __map = ::serde::__as_map(__inner, \"{ty}\")?;\n{}\
                             ::core::result::Result::Ok({ty} {{\n{}}})\n}}\n",
                            deny_unknown_fields(fields, &ty, item.deny_unknown),
                            de_fields(fields, &ty)
                        ))
                    }
                }
            }
            format!(
                "match __value {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n{unit_arms}\
                 __other => ::core::result::Result::Err(::serde::Error::new(format!(\
                 \"unknown variant `{{}}` of `{name}`\", __other))),\n}},\n\
                 ::serde::Value::Map(__m) if __m.len() == 1 => {{\n\
                 let (__tag, __inner) = &__m[0];\n\
                 match __tag.as_str() {{\n{tagged_arms}\
                 __other => ::core::result::Result::Err(::serde::Error::new(format!(\
                 \"unknown variant `{{}}` of `{name}`\", __other))),\n}}\n}}\n\
                 _ => ::core::result::Result::Err(::serde::Error::new(\
                 \"expected string or single-key map for enum `{name}`\".to_string())),\n}}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__value: &::serde::Value) \
         -> ::core::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}\n"
    )
}
