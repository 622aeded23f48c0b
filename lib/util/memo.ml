type 'a t = { find : string -> 'a option; store : string -> 'a -> unit }
