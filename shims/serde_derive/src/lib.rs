//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the vendored serde shim.
//!
//! syn/quote are unavailable offline, so the input item is parsed directly from the
//! `proc_macro` token stream. Supported shapes — the ones this workspace uses:
//!
//! * named-field structs (externally an object),
//! * tuple structs (newtype: transparent; longer: an array),
//! * unit structs (null),
//! * enums with unit (`"Variant"`), newtype (`{"Variant": ...}`), tuple
//!   (`{"Variant": [...]}`) and struct (`{"Variant": {...}}`) variants,
//! * `#[serde(skip)]` fields: omitted on serialize, `Default::default()` on
//!   deserialize.
//!
//! The impls write straight to a `serde::Writer` and read straight from a
//! `serde::Reader`. Named fields may arrive in any order; unknown keys are skipped,
//! a repeated key keeps its first value, and a missing field is an error. Generic
//! items are rejected with a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone)]
struct Field {
    name: Option<String>,
    skip: bool,
}

impl Field {
    /// A named field's name.
    fn name(&self) -> &str {
        self.name.as_deref().expect("named field")
    }
}

#[derive(Debug, Clone)]
enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derive `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(msg) => error(&msg),
    }
}

/// Derive `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item).parse().unwrap(),
        Err(msg) => error(&msg),
    }
}

fn error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;

    // Skip outer attributes and visibility until the `struct` / `enum` keyword.
    let kind = loop {
        match tokens.get(i) {
            None => return Err("derive input ended before `struct`/`enum`".into()),
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 2; // `#` + bracketed attribute group
            }
            Some(TokenTree::Ident(id)) => {
                let text = id.to_string();
                if text == "struct" || text == "enum" {
                    i += 1;
                    break text;
                }
                i += 1; // `pub`, `crate`, ...
            }
            Some(TokenTree::Group(_)) => i += 1, // `pub(crate)` group
            Some(_) => i += 1,
        }
    };

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, found {other:?}")),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive: generic type `{name}` is not supported"
            ));
        }
    }

    if kind == "struct" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Struct {
                name,
                shape: Shape::Named(parse_named_fields(g.stream())?),
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Item::Struct {
                    name,
                    shape: Shape::Tuple(parse_tuple_fields(g.stream())),
                })
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Item::Struct {
                name,
                shape: Shape::Unit,
            }),
            other => Err(format!("unsupported struct body: {other:?}")),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Enum {
                name,
                variants: parse_variants(g.stream())?,
            }),
            other => Err(format!("expected enum body, found {other:?}")),
        }
    }
}

/// Does an attribute group (the `[...]` contents) spell `serde(skip)`?
fn is_skip_attr(stream: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match (tokens.first(), tokens.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g))) if id.to_string() == "serde" => g
            .stream()
            .into_iter()
            .any(|t| matches!(&t, TokenTree::Ident(i) if i.to_string() == "skip")),
        _ => false,
    }
}

/// Parse `field: Type, ...` with optional attributes and visibility per field.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let mut skip = false;
        // Attributes.
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() != '#' {
                break;
            }
            if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                skip |= is_skip_attr(g.stream());
            }
            i += 2;
        }
        // Visibility.
        if let Some(TokenTree::Ident(id)) = tokens.get(i) {
            if id.to_string() == "pub" {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
        }
        // Name.
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field {
            name: Some(name),
            skip,
        });
    }
    Ok(fields)
}

/// Parse tuple-struct fields: split the paren contents on top-level commas.
fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut skip = false;
    let mut any = false;
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    skip |= is_skip_attr(g.stream());
                }
                i += 1; // the group is consumed on the next loop turn
            }
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields.push(Field { name: None, skip });
                skip = false;
                any = false;
            }
            _ => any = true,
        }
        i += 1;
    }
    if any {
        fields.push(Field { name: None, skip });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // Attributes (doc comments etc.).
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() != '#' {
                break;
            }
            i += 2;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(parse_tuple_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        // Optional discriminant, then the separating comma.
        while let Some(tok) = tokens.get(i) {
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

/// Statements writing a shape to `__out`, given each field's access expression.
fn ser_shape(shape: &Shape, access: impl Fn(usize, &Field) -> String) -> String {
    match shape {
        Shape::Unit => "__out.null();".to_string(),
        Shape::Tuple(fields) if fields.len() == 1 => {
            format!(
                "::serde::Serialize::serialize({}, __out);",
                access(0, &fields[0])
            )
        }
        Shape::Tuple(fields) => {
            let items: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!(
                        "__out.element(); ::serde::Serialize::serialize({}, __out);\n",
                        access(i, f)
                    )
                })
                .collect();
            format!("__out.begin_array();\n{items}__out.end_array();")
        }
        Shape::Named(fields) => {
            let members: String = fields
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.skip)
                .map(|(i, f)| format!("__out.field({:?}, {});\n", f.name(), access(i, f)))
                .collect();
            format!("__out.begin_object();\n{members}__out.end_object();")
        }
    }
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, shape } => {
            let body = ser_shape(shape, |i, f| match &f.name {
                Some(field) => format!("&self.{field}"),
                None => format!("&self.{i}"),
            });
            (name, body)
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let pattern = match &v.shape {
                        Shape::Unit => String::new(),
                        Shape::Tuple(fields) => {
                            let binds: Vec<String> =
                                (0..fields.len()).map(|i| format!("__f{i}")).collect();
                            format!("({})", binds.join(", "))
                        }
                        Shape::Named(fields) => {
                            let binds: String = fields
                                .iter()
                                .filter(|f| !f.skip)
                                .map(|f| format!("{}, ", f.name()))
                                .collect();
                            format!(" {{ {binds}.. }}")
                        }
                    };
                    let body = match &v.shape {
                        Shape::Unit => format!("__out.str({vname:?});"),
                        shape => {
                            let inner = ser_shape(shape, |i, f| {
                                f.name.clone().unwrap_or_else(|| format!("__f{i}"))
                            });
                            format!(
                                "__out.begin_object(); __out.key({vname:?});\n{inner}\n__out.end_object();"
                            )
                        }
                    };
                    format!("{name}::{vname}{pattern} => {{ {body} }}\n")
                })
                .collect();
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __out: &mut ::serde::Writer) {{\n{body}\n}}\n}}\n"
    )
}

/// An expression reading a shape from `__in` into `path`.
fn de_shape(path: &str, shape: &Shape) -> String {
    match shape {
        Shape::Unit => format!("{{ __in.skip()?; {path} }}"),
        Shape::Tuple(fields) if fields.len() == 1 => {
            format!("{path}(::serde::Deserialize::deserialize(__in)?)")
        }
        Shape::Tuple(fields) => {
            let n = fields.len();
            let items = format!("__in.element({n})?, ").repeat(n);
            format!(
                "{{ __in.begin_array()?; let __v = {path}({items}); __in.end_array({n})?; __v }}"
            )
        }
        Shape::Named(fields) => {
            // One `Option` slot per field; `#[serde(skip)]` keys fall to the `_` arm.
            let (mut slots, mut arms, mut inits) = (String::new(), String::new(), String::new());
            for (i, f) in fields.iter().enumerate() {
                let fname = f.name();
                if f.skip {
                    inits += &format!("{fname}: ::core::default::Default::default(),\n");
                } else {
                    slots += &format!("let mut __f{i} = None;\n");
                    arms += &format!("{fname:?} => __in.field(&mut __f{i})?,\n");
                    inits += &format!("{fname}: ::serde::required(__f{i}, {fname:?})?,\n");
                }
            }
            format!(
                "{{\n__in.begin_object()?;\n{slots}\
                 while let Some(__key) = __in.next_key()? {{\n\
                 match &*__key {{\n{arms}_ => __in.skip()?,\n}}\n}}\n\
                 {path} {{\n{inits}}}\n}}"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, shape } => (name, format!("Ok({})", de_shape(name, shape))),
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let path = format!("{name}::{vname}");
                    match &v.shape {
                        Shape::Unit => format!("({vname:?}, false) => {path},\n"),
                        shape => format!("({vname:?}, true) => {},\n", de_shape(&path, shape)),
                    }
                })
                .collect();
            let body = format!(
                "let (__tag, __data) = __in.variant({name:?})?;\n\
                 let __value = match (&*__tag, __data) {{\n{arms}\
                 (__other, _) => return Err(::serde::Error::custom(format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                 }};\n\
                 if __data {{ __in.end_variant()?; }}\n\
                 Ok(__value)"
            );
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__in: &mut ::serde::Reader<'_>) -> Result<Self, ::serde::Error> {{\n{body}\n}}\n}}\n"
    )
}
